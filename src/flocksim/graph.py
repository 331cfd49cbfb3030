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

All products and quadratic forms are evaluated edge-wise from the edge
list at every n; only stability_matrices forms dense (Kronecker)
matrices, kept as the reference for tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .core import EPS_POS, EPS_VEL, InteractionParams

log = logging.getLogger(__name__)

# Selects nothing: no code path depends on the node count.  The name stays
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


class _EdgeTerms(NamedTuple):
    """Per-edge dp = p_j - p_i, dv, guard flags and offset weights (0 off-guard)."""

    dp: np.ndarray
    dv: np.ndarray
    pos_valid: np.ndarray
    vel_valid: np.ndarray
    w_pos: np.ndarray
    w_vel: np.ndarray


def _params_seq(params, n: int) -> list[InteractionParams]:
    if isinstance(params, InteractionParams):
        return [params] * n
    params = list(params)
    if len(params) != n:
        raise ValueError(f"expected {n} parameter blocks, got {len(params)}")
    return params


def build_graph(positions: np.ndarray, params) -> InteractionGraph:
    """Directed edge (j, i) for every j in agent i's neighborhood."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    radii = np.array([p.radius for p in _params_seq(params, n)])
    dist = cdist(positions, positions)
    mask = dist <= radii[:, None]
    np.fill_diagonal(mask, False)
    receivers, sources = np.nonzero(mask)  # row-major == sorted by (i, j)
    return InteractionGraph(n_nodes=n, sources=sources, receivers=receivers)


def laplacian(g: InteractionGraph) -> np.ndarray:
    """L = D D^T; symmetric PSD by construction."""
    d = g.incidence
    return d @ d.T


def _edge_terms(g: InteractionGraph, positions: np.ndarray, velocities: np.ndarray,
                plist: list[InteractionParams]) -> _EdgeTerms:
    sources, receivers = g.sources, g.receivers
    dp = positions[sources] - positions[receivers]
    dv = velocities[sources] - velocities[receivers]
    dist = np.linalg.norm(dp, axis=1)
    dvn = np.linalg.norm(dv, axis=1)
    deg = g.in_degrees()[receivers]
    delta = np.array([p.delta for p in plist])[receivers]
    eta = np.array([p.eta for p in plist])[receivers]
    alpha = np.array([p.alpha for p in plist])[receivers]
    beta = np.array([p.beta for p in plist])[receivers]
    pos_valid = dist > EPS_POS
    vel_valid = dvn > EPS_VEL
    w_pos = np.where(pos_valid, (delta * deg / np.where(pos_valid, dist, 1.0)) ** alpha, 0.0)
    w_vel = np.where(vel_valid, (eta / (deg * np.where(vel_valid, dvn, 1.0))) ** beta, 0.0)
    return _EdgeTerms(dp, dv, pos_valid, vel_valid, w_pos, w_vel)


def _oracle_terms(g, positions, velocities, params) -> _EdgeTerms:
    """Edge terms for the matrix form, which refuses guard-band edges."""
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    t = _edge_terms(g, positions, velocities, _params_seq(params, positions.shape[0]))
    for valid, kind in ((t.pos_valid, "position"), (t.vel_valid, "velocity")):
        if not valid.all():
            e = int(np.argmin(valid))
            raise OracleInapplicableError(int(g.sources[e]), int(g.receivers[e]), kind)
    return t


def weighted_incidence(g: InteractionGraph, positions: np.ndarray,
                       velocities: np.ndarray, params) -> WeightedIncidence:
    """Freeze the current state's per-edge offset weights."""
    t = _oracle_terms(g, positions, velocities, params)
    return WeightedIncidence(dim=t.dp.shape[1], w_pos=t.w_pos, w_vel=t.w_vel)


def edge_state(g: InteractionGraph, positions: np.ndarray,
               velocities: np.ndarray, params) -> EdgeState:
    """Edge differences and offset stacks for the current snapshot."""
    t = _oracle_terms(g, positions, velocities, params)
    return EdgeState(
        e=t.dp.reshape(-1),
        e_dot=t.dv.reshape(-1),
        q=(t.w_pos[:, None] * t.dp).reshape(-1),
        q_tilde=(t.w_vel[:, None] * t.dv).reshape(-1),
    )


def global_rhs(positions: np.ndarray, velocities: np.ndarray, params) -> np.ndarray:
    """Stacked accelerations -D_bar (D^T kron I) p - D_hat (D^T kron I) v.

    Block i sums (1 - w_pos) dp + (1 - w_vel) dv over agent i's in-edges
    and equals the per-agent interaction acceleration.  Degenerate pairs
    raise OracleInapplicableError because the matrix form has no guard
    branch.
    """
    positions = np.asarray(positions, dtype=float)
    plist = _params_seq(params, positions.shape[0])
    g = build_graph(positions, plist)
    t = _oracle_terms(g, positions, velocities, plist)
    rhs = np.zeros((g.n_nodes, t.dp.shape[1]))
    np.add.at(rhs, g.receivers,
              (1.0 - t.w_pos)[:, None] * t.dp + (1.0 - t.w_vel)[:, None] * t.dv)
    return rhs.reshape(-1)


def edge_errors(positions: np.ndarray, velocities: np.ndarray, params,
                g: InteractionGraph | None = None) -> EdgeErrors:
    """Interaction residuals per directed edge and their per-agent means."""
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    n, m = positions.shape
    plist = _params_seq(params, n)
    if g is None:
        g = build_graph(positions, plist)
    receivers = g.receivers
    dp, dv, pos_valid, vel_valid, w_pos, w_vel = _edge_terms(g, positions, velocities, plist)
    pos = np.where(pos_valid[:, None], dp - w_pos[:, None] * dp, 0.0)
    vel = np.where(vel_valid[:, None], dv - w_vel[:, None] * dv, 0.0)

    sum_pos = np.zeros((n, m))
    sum_vel = np.zeros((n, m))
    np.add.at(sum_pos, receivers[pos_valid], pos[pos_valid])
    np.add.at(sum_vel, receivers[vel_valid], vel[vel_valid])
    cnt_pos = np.bincount(receivers[pos_valid], minlength=n).astype(float)
    cnt_vel = np.bincount(receivers[vel_valid], minlength=n).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        agent_mean_pos = np.where(cnt_pos[:, None] > 0, sum_pos / cnt_pos[:, None], np.nan)
        agent_mean_vel = np.where(cnt_vel[:, None] > 0, sum_vel / cnt_vel[:, None], np.nan)
    return EdgeErrors(
        sources=g.sources, receivers=receivers,
        pos=pos, vel=vel, pos_valid=pos_valid, vel_valid=vel_valid,
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
        nodes = np.zeros((g.n_nodes, m))
        np.add.at(nodes, g.receivers, row_weights[:, None] * x.reshape(-1, m))
        return float(x @ (nodes[g.receivers] - nodes[g.sources]).reshape(-1))

    v = 0.5 * float(es.e_dot @ es.e_dot) + 0.5 * form(1.0 - w.w_pos, es.e)
    return v, -form(1.0 - w.w_vel, es.e_dot)


def lyapunov_monitor(positions: np.ndarray, velocities: np.ndarray, params) -> dict:
    """One-shot monitor: freeze weights at this snapshot and report V, V_dot.

    Also reports whether the symmetric parts of A and B are numerically
    PSD (smallest eigenvalue >= -1e-10, see _min_sym_eigenvalue), or None
    for a graph without edges.  PSD failures are logged, not raised — the
    dissipation argument needs assumptions that running scenarios may
    violate.
    """
    positions = np.asarray(positions, dtype=float)
    plist = _params_seq(params, positions.shape[0])
    g = build_graph(positions, plist)
    w = weighted_incidence(g, positions, velocities, plist)
    es = edge_state(g, positions, velocities, plist)
    v, v_dot = lyapunov_value(es, w, g)
    a_psd = b_psd = None
    if g.n_edges > 0:
        a_psd = _min_sym_eigenvalue(g, 1.0 - w.w_vel) >= -1e-10
        b_psd = _min_sym_eigenvalue(g, 1.0 - w.w_pos) >= -1e-10
        if not a_psd:
            log.warning("symmetric part of A not PSD; dissipation bound not certified")
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
    """True iff one node is reachable from every other along edge directions."""
    n = g.n_nodes
    if n == 1:
        return True
    if g.n_edges == 0:
        return False
    adj = csr_matrix(
        (np.ones(g.n_edges), (g.sources, g.receivers)), shape=(n, n)
    )
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    if n_comp == 1:
        return True
    # The condensation is a DAG; a globally reachable root exists iff it
    # has exactly one sink component.
    has_out = np.zeros(n_comp, dtype=bool)
    src_lab = labels[g.sources]
    rcv_lab = labels[g.receivers]
    has_out[src_lab[src_lab != rcv_lab]] = True
    return int(np.count_nonzero(~has_out)) == 1
