"""Pairwise interaction laws for the offset-vector flocking model.

Every agent steers from two ingredients summed over its metric
neighborhood: an aggregation term whose weight crosses zero when the
pair distance equals ``delta * count``, and an alignment term whose
weight crosses zero when the relative speed equals ``eta / count``.
Both terms are weighted relative coordinates, so the update of agent i
costs O(|N_i|) and needs no global bookkeeping.

Distances are in meters, velocities in m/s, accelerations in m/s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Guard thresholds for degenerate pair geometry.  Below EPS_POS two
# agents count as coincident; below EPS_VEL a relative velocity counts
# as zero and the alignment term is dropped for that pair.
EPS_POS = 1e-9  # m
EPS_VEL = 1e-9  # m/s


def require_finite(spec) -> None:
    """Raise ValueError unless every field of the dataclass ``spec`` is a
    finite number (or a tuple of finite numbers)."""
    for name in spec.__dataclass_fields__:
        value = getattr(spec, name)
        try:
            ok = all(map(math.isfinite, value if isinstance(value, tuple) else (value,)))
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


class DegeneratePairError(ValueError):
    """Raised when a pair quantity is requested inside a guard band."""

    def __init__(self, i: int, j: int, kind: str):
        self.i = i
        self.j = j
        self.kind = kind
        super().__init__(f"pair ({i}, {j}) is degenerate in {kind}")


class PairNumericsError(FloatingPointError):
    """Raised when a pairwise term evaluates to a non-finite value."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"non-finite interaction term for pair ({i}, {j})")


@dataclass(frozen=True)
class AgentState:
    """Position and velocity of a single agent in R^2 or R^3."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        v = np.asarray(self.velocity, dtype=float)
        if p.shape != v.shape or p.ndim != 1 or p.shape[0] not in (2, 3):
            raise ValueError(
                f"position/velocity must share shape (2,) or (3,), got "
                f"{p.shape} and {v.shape}"
            )
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
            raise ValueError("agent state must be finite")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "velocity", v)

    @property
    def dim(self) -> int:
        return self.position.shape[0]


@dataclass(frozen=True)
class InteractionParams:
    """Per-agent gains of the interaction law.

    delta   target spacing factor; preferred distance is delta * |N_i| (m)
    eta     alignment scale; preferred relative speed is eta / |N_i| (m/s)
    alpha   exponent of the aggregation weight
    beta    exponent of the alignment weight
    radius  neighborhood radius r_i (m)
    v_max   speed ceiling applied by the saturation map (m/s)
    t_vmax  time to reach v_max from rest; sets the rate limit (s)
    """

    delta: float = 1.0
    eta: float = 3.0
    alpha: float = 2.0
    beta: float = 1.0
    radius: float = 10.0
    v_max: float = 5.0
    t_vmax: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.delta < 0 or self.eta < 0:
            raise ValueError("delta and eta must be non-negative")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.v_max <= 0 or self.t_vmax <= 0:
            raise ValueError("v_max and t_vmax must be positive")

    @property
    def s(self) -> float:
        """Acceleration ceiling v_max / t_vmax (m/s^2)."""
        return self.v_max / self.t_vmax


@dataclass(frozen=True)
class Neighborhood:
    """Indices of the agents within radius of one agent (agent excluded)."""

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CuckerSmaleParams:
    """Parameters of the Cucker-Smale comparison law K / (sigma^2 + d)^gamma."""

    k_gain: float = 1.0
    sigma_cs: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        require_finite(self)
        if self.k_gain <= 0 or self.sigma_cs <= 0:
            raise ValueError("k_gain and sigma_cs must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


def neighborhood(i: int, positions: np.ndarray, radius: float) -> Neighborhood:
    """Agents j != i with ||p_j - p_i|| <= radius (boundary included)."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"agent index {i} out of range for {n} agents")
    if radius <= 0:
        raise ValueError("radius must be positive")
    d = np.linalg.norm(positions - positions[i], axis=1)
    members = [int(j) for j in np.nonzero(d <= radius)[0] if j != i]
    return Neighborhood(tuple(members))


def all_neighborhoods(
    positions: np.ndarray,
    radii,
    distances: np.ndarray | None = None,
) -> list[Neighborhood]:
    """Neighborhoods of every agent in one pass.

    ``radii`` is a scalar or per-agent sequence; ``distances`` may carry a
    precomputed dense pairwise distance matrix to avoid recomputation.
    Neighborhoods are directed when radii differ between agents.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    radii_arr = np.broadcast_to(np.asarray(radii, dtype=float), (n,))
    if distances is None:
        diff = positions[:, None, :] - positions[None, :, :]
        distances = np.linalg.norm(diff, axis=2)
    out = []
    for i in range(n):
        mask = distances[i] <= radii_arr[i]
        mask[i] = False
        out.append(Neighborhood(tuple(np.nonzero(mask)[0].tolist())))
    return out


def psi_weight(distance: float, delta: float, count: int, alpha: float) -> float:
    """Aggregation weight 1 - (delta * count / distance)^alpha.

    Negative below the preferred spacing delta * count (repulsion),
    positive above it (attraction), zero exactly at it.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    return 1.0 - (delta * count / distance) ** alpha


def phi_weight(speed_diff: float, eta: float, count: int, beta: float) -> float:
    """Alignment weight 1 - (eta / (count * speed_diff))^beta.

    Zero when the relative speed equals eta / count; the caller guards
    the empty neighborhood and the zero relative velocity.
    """
    if speed_diff <= 0:
        raise ValueError("speed_diff must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    return 1.0 - (eta / (count * speed_diff)) ** beta


def _tie_break_direction(i: int, j: int, dim: int) -> np.ndarray:
    """Deterministic separation axis for a coincident pair.

    Lowest coordinate axis, signed by index order, so the two agents of
    the pair receive equal and opposite impulses.
    """
    e = np.zeros(dim)
    e[0] = 1.0 if j > i else -1.0
    return e


def interaction_acceleration(
    i: int,
    positions: np.ndarray,
    velocities: np.ndarray,
    params: InteractionParams,
    nbrs: Neighborhood | None = None,
) -> np.ndarray:
    """Sum of aggregation and alignment terms acting on agent i.

    Pairs closer than EPS_POS fall back to a deterministic separation
    impulse of magnitude |psi(EPS_POS)|; pairs with relative speed below
    EPS_VEL contribute no alignment.  Returns the raw (unclamped)
    acceleration; the integrator applies the rate limit.
    """
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    n, m = positions.shape
    if not 0 <= i < n:
        raise IndexError(f"agent index {i} out of range for {n} agents")
    if nbrs is None:
        nbrs = neighborhood(i, positions, params.radius)
    k = nbrs.count
    if k == 0:
        return np.zeros(m)

    idx = np.fromiter(nbrs.members, dtype=int, count=k)
    dp = positions[idx] - positions[i]
    dv = velocities[idx] - velocities[i]
    dist = np.linalg.norm(dp, axis=1)
    dvn = np.linalg.norm(dv, axis=1)

    separated = dist >= EPS_POS
    psi = 1.0 - (params.delta * k / np.where(separated, dist, 1.0)) ** params.alpha
    agg = np.where(separated[:, None], psi[:, None] * dp, 0.0)
    if not separated.all():
        w = psi_weight(EPS_POS, params.delta, k, params.alpha)
        for row in np.nonzero(~separated)[0]:
            agg[row] = w * _tie_break_direction(i, int(idx[row]), m)

    moving = dvn >= EPS_VEL
    phi = 1.0 - (params.eta / (k * np.where(moving, dvn, 1.0))) ** params.beta
    ali = np.where(moving[:, None], phi[:, None] * dv, 0.0)

    total = agg.sum(axis=0) + ali.sum(axis=0)
    if not np.all(np.isfinite(total)):
        bad = ~np.all(np.isfinite(agg + ali), axis=1)
        j = int(idx[np.nonzero(bad)[0][0]]) if bad.any() else int(idx[0])
        raise PairNumericsError(i, j)
    return total


def offset_vectors(
    i: int,
    j: int,
    positions: np.ndarray,
    velocities: np.ndarray,
    params: InteractionParams,
    nbrs: Neighborhood | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Offset pair (p_ij, v_ij) seen by agent i toward neighbor j.

    p_ij = (delta * |N_i| / ||dp||)^alpha * dp and
    v_ij = (eta / (|N_i| * ||dv||))^beta * dv, where dp = p_j - p_i and
    dv = v_j - v_i.  The interaction terms are the residuals dp - p_ij
    and dv - v_ij.  Raises DegeneratePairError inside the guard bands.
    """
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    n = positions.shape[0]
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise IndexError(f"invalid pair ({i}, {j}) for {n} agents")
    if nbrs is None:
        nbrs = neighborhood(i, positions, params.radius)
    k = nbrs.count
    if k == 0:
        raise DegeneratePairError(i, j, "empty neighborhood")
    dp = positions[j] - positions[i]
    dv = velocities[j] - velocities[i]
    dist = float(np.linalg.norm(dp))
    dvn = float(np.linalg.norm(dv))
    if dist <= EPS_POS:
        raise DegeneratePairError(i, j, "position")
    if dvn <= EPS_VEL:
        raise DegeneratePairError(i, j, "velocity")
    p_off = (params.delta * k / dist) ** params.alpha * dp
    v_off = (params.eta / (k * dvn)) ** params.beta * dv
    return p_off, v_off


def saturate_velocity(velocity: np.ndarray, v_max: float) -> np.ndarray:
    """Smoothly cap the speed at v_max, preserving direction.

    Maps speed u to v_max * tanh(u / v_max); near-zero velocities are
    returned unchanged.
    """
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    v = np.asarray(velocity, dtype=float)
    speed = float(np.linalg.norm(v))
    if speed < EPS_VEL:
        return v.copy()
    return (v_max * math.tanh(speed / v_max) / speed) * v


def rate_limit(acceleration: np.ndarray, limit: float) -> np.ndarray:
    """Scale the acceleration down to norm ``limit`` if it exceeds it."""
    if limit <= 0:
        raise ValueError("limit must be positive")
    a = np.asarray(acceleration, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm <= limit:
        return a.copy()
    return (limit / norm) * a


def cucker_smale_acceleration(
    i: int,
    positions: np.ndarray,
    velocities: np.ndarray,
    cs: CuckerSmaleParams,
) -> np.ndarray:
    """Globally coupled consensus term sum_j K/(sigma^2 + d_ij)^gamma (v_j - v_i).

    The sum runs over every agent; the j = i term vanishes because the
    relative velocity is zero there.
    """
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    n = positions.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"agent index {i} out of range for {n} agents")
    dist = np.linalg.norm(positions - positions[i], axis=1)
    w = cs.k_gain / (cs.sigma_cs**2 + dist) ** cs.gamma
    dv = velocities - velocities[i]
    total = (w[:, None] * dv).sum(axis=0)
    if not np.all(np.isfinite(total)):
        raise PairNumericsError(i, int(np.argmax(~np.all(np.isfinite(w[:, None] * dv), axis=1))))
    return total
