"""Graph form of the interaction dynamics: incidence operators, a global
right-hand-side oracle, edge residuals, and a Lyapunov monitor.

Edges are directed (j, i): agent i receives from j because j lies inside
i's radius.  Columns of the incidence matrix D carry +1 at the receiving
node (head) and -1 at the source (tail), so stacking p agent-major gives
edge differences via (-D^T kron I_m) p = (p_j - p_i per edge).

The stacked weighted operators restrict each node's row of D to its
in-edges before applying the per-node weight diagonals.  With full rows,
a node's out-edges would couple back into its own dynamics, which the
per-agent law does not contain; the in-edge restriction makes the global
product reproduce the per-agent sums exactly (see global_rhs).

A Snapshot (snapshot_of) is one state's record: pairwise distances (the
dense matrix, or one per candidate pair when the state stacks independent
cells), the neighbor graph (a receiver-sorted edge list), a params table
and the edge terms for it.  The force kernel interaction_accelerations,
edge_errors, global_rhs and lyapunov_monitor read it; Snapshot.reweighted
recomputes only the offset weights for a new table.  Products and quadratic
forms are evaluated edge-wise at every n; only stability_matrices forms
dense (Kronecker) matrices, kept as the reference for tests.  The kernel
reproduces the per-agent core.interaction_acceleration bit for bit.  The
monitor's spanning-tree check is NumPy reachability.  Distances are computed
in cdist's arithmetic, bit for bit; scipy serves only the dense matrix and its
condensed form above NUMPY_DISTANCE_NODES agents, and is imported on first use.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (EPS_POS, EPS_VEL, AgentParams, PairNumericsError, _tie_break_direction,
                   agent_params, psi_weight)

log = logging.getLogger(__name__)

# Dense distances of up to this many agents are NumPy's; above it, scipy's cdist
# and squareform, imported on first use.  cdist is faster at every size (2-D, us
# per call, cdist against NumPy: n=40 9.8 against 15-20, n=100 34 against 62,
# n=300 227 against 912), but importing scipy costs ~0.4 s of a fresh process.
# Up to 100 the NumPy form adds at most ~30 us per snapshot.
NUMPY_DISTANCE_NODES = 100

# Selects nothing: no monitor path depends on the node count.  The name stays
# because the benchmark's graph.dense_frac counter (flockbench/tracing.py)
# reads it; at 0 that counter reports no dense monitor calls.
DENSE_NODE_LIMIT = 0


class OracleInapplicableError(ValueError):
    """The matrix form has no guard branch; degenerate pairs are refused."""

    def __init__(self, j: int, i: int, kind: str):
        self.j = j
        self.i = i
        self.kind = kind
        super().__init__(
            f"edge ({j}->{i}) degenerate in {kind}; global form undefined"
        )


@dataclass(frozen=True)
class InteractionGraph:
    """Directed proximity graph as an edge list sorted by (receiver, source)."""

    n_nodes: int
    sources: np.ndarray  # (E,) int, source j of each edge
    receivers: np.ndarray  # (E,) int, receiver i of each edge

    @property
    def n_edges(self) -> int:
        return self.sources.shape[0]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(source j, receiver i) pairs in edge order."""
        return tuple(zip(self.sources.tolist(), self.receivers.tolist()))

    @property
    def incidence(self) -> np.ndarray:
        """Dense (n_nodes, n_edges) D: +1 at the receiver, -1 at the source."""
        d = np.zeros((self.n_nodes, self.n_edges))
        cols = np.arange(self.n_edges)
        d[self.receivers, cols] = 1.0
        d[self.sources, cols] = -1.0
        return d

    def in_degrees(self) -> np.ndarray:
        """Number of in-edges per node == |N_i| of the receiving agent."""
        return np.bincount(self.receivers, minlength=self.n_nodes)


@dataclass(frozen=True)
class WeightedIncidence:
    """Per-edge offset weights frozen at one snapshot.

    The stacked operators D_bar and D_hat are the in-edge rows of D scaled
    per edge by 1 - w_pos and 1 - w_vel, kron I_m.
    """

    dim: int
    w_pos: np.ndarray  # (E,)
    w_vel: np.ndarray  # (E,)


@dataclass(frozen=True)
class EdgeState:
    """Stacked edge-space vectors, ordered like the edge list."""

    e: np.ndarray  # (E*m,) edge position differences p_j - p_i
    e_dot: np.ndarray  # (E*m,) edge velocity differences
    q: np.ndarray  # (E*m,) stacked position offsets p_ij
    q_tilde: np.ndarray  # (E*m,) stacked velocity offsets v_ij


@dataclass(frozen=True)
class EdgeErrors:
    """Residuals (dp - p_ij, dv - v_ij) per edge plus per-agent averages.

    Edges inside a guard band carry a flagged sentinel row (zeros,
    valid=False) and are excluded from the averages; agents with no
    valid in-edge get NaN averages.
    """

    sources: np.ndarray  # (E,)
    receivers: np.ndarray  # (E,)
    pos: np.ndarray  # (E, m)
    vel: np.ndarray  # (E, m)
    pos_valid: np.ndarray  # (E,) bool
    vel_valid: np.ndarray  # (E,) bool
    agent_mean_pos: np.ndarray  # (n, m)
    agent_mean_vel: np.ndarray  # (n, m)


class Snapshot(NamedTuple):
    """Distances (the _distances matrix, one per candidate pair of build_graph's
    ``pairs``, or None), graph, params table and per edge dp = p_j - p_i, dv,
    their norms, guard flags (valid at and above EPS_POS, EPS_VEL) and offset
    weights (0 off-guard)."""

    distances: np.ndarray | None
    graph: InteractionGraph
    params: AgentParams | None
    dp: np.ndarray
    dv: np.ndarray
    dp_norm: np.ndarray
    dv_norm: np.ndarray
    pos_valid: np.ndarray
    vel_valid: np.ndarray
    w_pos: np.ndarray | None = None
    w_vel: np.ndarray | None = None

    def reweighted(self, params) -> Snapshot:
        """This snapshot under ``params`` (same radii): new offset weights only."""
        p, receivers = agent_params(params, self.graph.n_nodes), self.graph.receivers
        deg = self.graph.in_degrees()[receivers]
        w_pos = np.where(self.pos_valid, _power(p.delta[receivers] * deg / np.where(
            self.pos_valid, self.dp_norm, 1.0), p.alpha, receivers), 0.0)
        w_vel = np.where(self.vel_valid, _power(p.eta[receivers] / (deg * np.where(
            self.vel_valid, self.dv_norm, 1.0)), p.beta, receivers), 0.0)
        return self._replace(params=p, w_pos=w_pos, w_vel=w_vel)


def build_graph(positions: np.ndarray, params, distances=None, pairs=None) -> InteractionGraph:
    """Directed edge (j, i) for every j in agent i's neighborhood.

    ``pairs`` = (sources, receivers), sorted by (receiver, source), may list
    the only candidate edges, e.g. the pairs within each of several stacked
    cells; ``distances`` may carry _distances(positions, pairs).
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    radius = agent_params(params, n).radius
    dist = _distances(positions, pairs) if distances is None else distances
    if pairs is not None:
        edges = np.flatnonzero(dist <= radius.take(pairs[1]))  # sorted, as the candidates
        return InteractionGraph(n, *(x.take(edges) for x in pairs))
    mask = dist <= radius[:, None]
    mask.reshape(-1)[::n + 1] = False  # no self edges
    receivers, sources = np.divmod(np.flatnonzero(mask), n)  # row-major == sorted by (i, j)
    return InteractionGraph(n_nodes=n, sources=sources, receivers=receivers)


def _distances(positions: np.ndarray, pairs=None) -> np.ndarray:
    """The (n, n) distance matrix, or the distance of each pair in ``pairs``, in
    scipy cdist's arithmetic bit for bit: squares summed axis by axis, then sqrt.
    Above NUMPY_DISTANCE_NODES agents the matrix is cdist's own."""
    if pairs is None:
        if positions.shape[0] > NUMPY_DISTANCE_NODES:
            return _scipy_distance().cdist(positions, positions)
        x0, *rest = positions.T
        sq = np.subtract.outer(x0, x0)
        sq *= sq
        for x in rest:
            d = np.subtract.outer(x, x)
            d *= d
            sq += d
        return np.sqrt(sq, out=sq)
    out = np.empty(pairs[0].shape[0])
    # Chunks of 2**15 pairs: small temporaries reuse freed heap memory, where whole-list ones
    # faulted in fresh pages on every call (~1.5x the page faults at phase-fig5's 424k pairs).
    for lo in range(0, out.shape[0], 1 << 15):
        part, sq = slice(lo, lo + (1 << 15)), 0.0
        for x in positions.T:
            sq = sq + (x.take(pairs[0][part]) - x.take(pairs[1][part])) ** 2
        np.sqrt(sq, out=out[part])
    return out


@functools.cache
def _scipy_distance():
    """scipy.spatial.distance, imported on first use; cached, because an import
    statement costs ~1.5 us per call even when the module is loaded."""
    import scipy.spatial.distance
    return scipy.spatial.distance


@functools.cache
def _upper_index(n: int) -> np.ndarray:
    """Flat indices of an (n, n) matrix's upper triangle, row by row; cached
    per n, since building them costs more than the take that reads them."""
    rows, cols = np.triu_indices(n, 1)
    index = rows * n + cols
    index.flags.writeable = False
    return index


def _condensed(distances: np.ndarray) -> np.ndarray:
    """The upper triangle of a distance matrix, row by row, as scipy's
    squareform(distances, checks=False) gives it (and computes it above
    NUMPY_DISTANCE_NODES agents); for a _distances matrix, pdist's bits."""
    n = distances.shape[0]
    if n > NUMPY_DISTANCE_NODES:
        return _scipy_distance().squareform(distances, checks=False)
    return distances.reshape(-1).take(_upper_index(n))


def snapshot_of(positions: np.ndarray, velocities: np.ndarray, params, pairs=None) -> Snapshot:
    """The Snapshot of a state; ``pairs`` as in build_graph."""
    p = agent_params(params, len(positions))
    dist = _distances(np.asarray(positions, dtype=float), pairs)
    return _edge_terms(build_graph(positions, p, dist, pairs), positions, velocities, p, dist)


def laplacian(g: InteractionGraph) -> np.ndarray:
    """L = D D^T; symmetric PSD by construction."""
    d = g.incidence
    return d @ d.T


def _power(base: np.ndarray, exponents: np.ndarray, receivers: np.ndarray) -> np.ndarray:
    """base ** exponents[receivers], each distinct exponent applied as a Python
    float as in core: NumPy squares for a scalar 2.0 but calls its vector pow
    for an array of exponents, and the two differ in the last bit."""
    if (exponents == exponents[0]).all():
        return base ** float(exponents[0])
    out = np.empty_like(base)
    for value in np.unique(exponents):
        sel = exponents[receivers] == value
        out[sel] = base[sel] ** float(value)
    return out


def _edge_terms(g: InteractionGraph, positions: np.ndarray, velocities: np.ndarray,
                params, distances=None) -> Snapshot:
    """The Snapshot of a state on the edges of ``g``, weighted for ``params``."""
    sources, receivers = g.sources, g.receivers
    positions, velocities = np.asarray(positions, dtype=float), np.asarray(velocities, dtype=float)
    dp = positions.take(sources, axis=0) - positions.take(receivers, axis=0)
    dv = velocities.take(sources, axis=0) - velocities.take(receivers, axis=0)
    # np.linalg.norm(x, axis=1) is sqrt(add.reduce(x * x, axis=1)), which adds
    # fewer than 8 terms left to right: summing the m columns gives its bits.
    dist, dvn = (np.sqrt(sum((x * x).T)) for x in (dp, dv))
    return Snapshot(distances, g, None, dp, dv, dist, dvn, dist >= EPS_POS,
                    dvn >= EPS_VEL).reweighted(params)


def _segment_sums(receivers: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """(n, m) sums of the rows of x per receiver; bincount adds in row order."""
    return np.column_stack([np.bincount(receivers, weights=x[:, c], minlength=n)
                            for c in range(x.shape[1])])


def interaction_accelerations(s: Snapshot) -> np.ndarray:
    """(n, m) interaction accelerations over the edges of the snapshot ``s``:
    row i is core.interaction_acceleration(i, ...) bit for bit, guard
    branches and PairNumericsError (lowest agent first) included.
    Aggregation and alignment are summed separately in source order."""
    g, p = s.graph, s.params
    n, m = g.n_nodes, s.dp.shape[1]
    agg, deg = (1.0 - s.w_pos)[:, None] * s.dp, g.in_degrees()
    for e in np.flatnonzero(~s.pos_valid).tolist():  # sets every guard row
        i, j = int(g.receivers[e]), int(g.sources[e])
        w = psi_weight(EPS_POS, float(p.delta[i]), int(deg[i]), float(p.alpha[i]))
        agg[e] = w * _tie_break_direction(i, j, m)
    ali = (1.0 - s.w_vel)[:, None] * s.dv
    ali[~s.vel_valid] = 0.0
    total = _segment_sums(g.receivers, agg, n) + _segment_sums(g.receivers, ali, n)
    bad = ~np.isfinite(total).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        edges = np.flatnonzero(g.receivers == i)
        rows = ~np.isfinite(agg[edges] + ali[edges]).all(axis=1)
        raise PairNumericsError(i, int(g.sources[edges[np.argmax(rows)]]))
    return total


def _frozen(s: Snapshot) -> tuple[WeightedIncidence, EdgeState]:
    """The frozen offset weights and edge stacks of ``s``, which the matrix
    form, having no guard branch, refuses if an edge is degenerate."""
    for valid, kind in ((s.pos_valid, "position"), (s.vel_valid, "velocity")):
        if not valid.all():
            e = int(np.argmin(valid))
            raise OracleInapplicableError(int(s.graph.sources[e]), int(s.graph.receivers[e]), kind)
    return (WeightedIncidence(dim=s.dp.shape[1], w_pos=s.w_pos, w_vel=s.w_vel),
            EdgeState(e=s.dp.reshape(-1), e_dot=s.dv.reshape(-1),
                      q=(s.w_pos[:, None] * s.dp).reshape(-1),
                      q_tilde=(s.w_vel[:, None] * s.dv).reshape(-1)))


def weighted_incidence(g: InteractionGraph, positions: np.ndarray,
                       velocities: np.ndarray, params) -> WeightedIncidence:
    """Freeze the current state's per-edge offset weights."""
    return _frozen(_edge_terms(g, positions, velocities, params))[0]


def edge_state(g: InteractionGraph, positions: np.ndarray,
               velocities: np.ndarray, params) -> EdgeState:
    """Edge differences and offset stacks for the current snapshot."""
    return _frozen(_edge_terms(g, positions, velocities, params))[1]


def global_rhs(positions: np.ndarray, velocities: np.ndarray, params) -> np.ndarray:
    """Stacked accelerations -D_bar (D^T kron I) p - D_hat (D^T kron I) v.

    Block i sums (1 - w_pos) dp + (1 - w_vel) dv over agent i's in-edges:
    the interaction_accelerations kernel, so it equals the per-agent
    interaction acceleration.  Degenerate pairs raise
    OracleInapplicableError because the matrix form has no guard branch.
    """
    snap = snapshot_of(positions, velocities, params)
    _frozen(snap)  # refuses degenerate edges
    return interaction_accelerations(snap).reshape(-1)


def edge_errors(positions: np.ndarray, velocities: np.ndarray, params,
                snapshot: Snapshot | None = None) -> EdgeErrors:
    """Interaction residuals per directed edge and their per-agent means;
    ``snapshot`` may carry snapshot_of(positions, velocities, params)."""
    s = snapshot_of(positions, velocities, params) if snapshot is None else snapshot
    n, receivers = s.graph.n_nodes, s.graph.receivers
    pos, vel = s.dp - s.w_pos[:, None] * s.dp, s.dv - s.w_vel[:, None] * s.dv
    pos[~s.pos_valid], vel[~s.vel_valid] = 0.0, 0.0
    # bincount sums start at +0.0, never -0.0, so a zeroed guard row changes no bit.
    sum_pos, sum_vel = _segment_sums(receivers, pos, n), _segment_sums(receivers, vel, n)
    cnt_pos = np.bincount(receivers, weights=s.pos_valid, minlength=n)
    cnt_vel = np.bincount(receivers, weights=s.vel_valid, minlength=n)
    with np.errstate(invalid="ignore", divide="ignore"):
        agent_mean_pos = np.where(cnt_pos[:, None] > 0, sum_pos / cnt_pos[:, None], np.nan)
        agent_mean_vel = np.where(cnt_vel[:, None] > 0, sum_vel / cnt_vel[:, None], np.nan)
    return EdgeErrors(
        sources=s.graph.sources, receivers=receivers,
        pos=pos, vel=vel, pos_valid=s.pos_valid, vel_valid=s.vel_valid,
        agent_mean_pos=agent_mean_pos, agent_mean_vel=agent_mean_vel,
    )


def stability_matrices(w: WeightedIncidence, g: InteractionGraph):
    """Dense A = (D^T kron I) D_hat and B = (D^T kron I) D_bar.

    The reference form of the operators that lyapunov_value and the
    monitor's PSD certificate evaluate without building them.
    """
    d = g.incidence
    in_rows = np.clip(d, 0.0, None)  # in-edge rows of D
    eye = np.eye(w.dim)
    return (np.kron(d.T @ (in_rows * (1.0 - w.w_vel)), eye),
            np.kron(d.T @ (in_rows * (1.0 - w.w_pos)), eye))


def _min_sym_eigenvalue(g: InteractionGraph, row_weights: np.ndarray) -> float:
    """Smallest eigenvalue of sym((D^T kron I_m) D_w) from a <= 2n x 2n problem.

    D_w is the stacked in-edge operator with per-edge weights
    ``row_weights`` (1 - w_vel for A, 1 - w_pos for B).  With R the
    (n, E) in-edge rows of D times those weights, two exact reductions:

    * eig(sym(X kron I_m)) = eig(sym X) with X = D^T R, each repeated m
      times, so the dimension drops out.
    * sym(D^T R) = U S U^T with U = [D^T R^T] (E x 2n) and
      S = 0.5 [[0, I], [I, 0]].  From U = Q R_u (orthonormal Q),
      U S U^T = Q (R_u S R_u^T) Q^T: its eigenvalues are those of
      R_u S R_u^T, at most 2n x 2n, plus exact zeros.

    QR is used, not the square root of G = U^T U: G is singular
    (D^T 1 = 0), and a square root of a singular matrix can turn rounding
    errors of ~1e-16 into ~1e-8.  U is reduced in row blocks, keeping
    memory O(n^2) at any edge count.
    """
    n = g.n_nodes
    r_u = np.zeros((0, 2 * n))
    for lo in range(0, g.n_edges, 8 * n):
        block = slice(lo, lo + 8 * n)
        rcv = g.receivers[block]
        rows = np.arange(rcv.shape[0])
        u = np.zeros((rcv.shape[0], 2 * n))
        u[rows, rcv] = 1.0
        u[rows, g.sources[block]] = -1.0
        u[rows, n + rcv] = row_weights[block]
        r_u = np.linalg.qr(np.vstack([r_u, u]), mode="r")
    half = 0.5 * (r_u[:, :n] @ r_u[:, n:].T)
    return float(np.linalg.eigvalsh(half + half.T).min())


def lyapunov_value(es: EdgeState, w: WeightedIncidence, g: InteractionGraph):
    """Energy-like value V = 0.5 e_dot.e_dot + 0.5 e^T B e and V_dot = -e_dot^T A e_dot.

    Weights are the frozen ones inside ``w``; under time-varying topology
    the caller re-freezes each step and treats the state as a fresh
    initial condition.
    """
    m = w.dim

    def form(row_weights, x):
        """x^T (D^T kron I_m) D_w x, edge-wise."""
        nodes = _segment_sums(g.receivers, row_weights[:, None] * x.reshape(-1, m), g.n_nodes)
        return float(x @ (nodes[g.receivers] - nodes[g.sources]).reshape(-1))

    v = 0.5 * float(es.e_dot @ es.e_dot) + 0.5 * form(1.0 - w.w_pos, es.e)
    return v, -form(1.0 - w.w_vel, es.e_dot)


def lyapunov_monitor(positions: np.ndarray, velocities: np.ndarray, params) -> dict:
    """One-shot monitor: freeze weights at this snapshot and report V, V_dot.

    Also reports whether the symmetric parts of A and B are numerically
    PSD (smallest eigenvalue >= -1e-10, see _min_sym_eigenvalue), or None
    for a graph without edges.  A non-PSD A is only reported (and logged at
    DEBUG): the dissipation argument needs assumptions that running
    scenarios may violate.  A positive V_dot despite a PSD A is a warning.
    """
    snap = snapshot_of(positions, velocities, params)
    g, (w, es) = snap.graph, _frozen(snap)
    v, v_dot = lyapunov_value(es, w, g)
    a_psd = b_psd = None
    if g.n_edges > 0:
        a_psd = _min_sym_eigenvalue(g, 1.0 - w.w_vel) >= -1e-10
        b_psd = _min_sym_eigenvalue(g, 1.0 - w.w_pos) >= -1e-10
        if not a_psd:
            log.debug("symmetric part of A not PSD; dissipation bound not certified")
        if a_psd and v_dot > 1e-12:
            log.warning("V_dot = %.3e exceeds tolerance despite PSD A", v_dot)
    return {
        "value": v,
        "derivative": v_dot,
        "a_psd": a_psd,
        "b_psd": b_psd,
        "n_edges": g.n_edges,
        "spanning_tree": has_spanning_tree(g),
    }


def has_spanning_tree(g: InteractionGraph) -> bool:
    """True iff one node reaches every other along source -> receiver edges,
    the direction information flows (the in-neighbour Laplacian has rank n - 1).
    Squaring the reflexive 0/1 adjacency matrix k times, clipped back to 0/1,
    gives reachability within 2**k edges; every path has at most n - 1.
    float32 halves float64's BLAS time, and a sum of 0/1 products that is
    positive stays positive in any precision."""
    reach = np.eye(g.n_nodes, dtype=np.float32)
    reach[g.sources, g.receivers] = 1.0
    for _ in range(int(g.n_nodes - 1).bit_length()):
        reach = np.sign(reach @ reach)
    return bool(reach.all(axis=1).any())
