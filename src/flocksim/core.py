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

import functools
import math
import numbers
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

# Guard thresholds for degenerate pair geometry.  Below EPS_POS two
# agents count as coincident; below EPS_VEL a relative velocity counts
# as zero and the alignment term is dropped for that pair.  A pair at
# exactly a threshold is regular in every layer.
EPS_POS = 1e-9  # m
EPS_VEL = 1e-9  # m/s


class ConfigError(ValueError):
    """Invalid simulation configuration."""


def as_number(value, name: str, integral: bool = False):
    """A finite float, or an int if ``integral``; bools, non-numbers, NaN,
    infinities, numbers beyond the float range and (if integral) fractions
    are refused, not coerced."""
    kind = "an integer" if integral else "a finite number"
    try:
        # float and int first: they skip the slower numbers.Real check.
        if (isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real))
                or not math.isfinite(value) or integral and not float(value).is_integer()):
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
    except OverflowError:  # not printed: an int's digits can pass repr's 4300-digit limit
        raise ConfigError(f"{name} must be {kind}, got a number beyond the float range") from None
    return int(value) if integral else float(value)


# The annotations of a field that holds config dataclass X: "X | None",
# "X | tuple[X, ...]" and "tuple[X, ...]"; the group that matched names X.
_BLOCK_FIELD = re.compile(r"(\w+) \| None|(\w+) \| tuple\[\2, \.\.\.\]|tuple\[(\w+), \.\.\.\]")


@functools.cache
def schema(cls) -> dict:
    """Field name -> (annotation as written, block) for each field of the
    dataclass ``cls``; block is the config dataclass X of a field annotated
    in one of _BLOCK_FIELD's forms, looked up in the module that defines
    ``cls``, and None for any other field."""
    module = sys.modules[cls.__module__]
    out = {}
    for f in fields(cls):
        match = (f.type not in ("tuple[int, ...]", "tuple[float, ...]")
                 and _BLOCK_FIELD.fullmatch(f.type))
        out[f.name] = f.type, getattr(module, next(filter(None, match.groups()))) if match else None
    return out


def check_fields(spec) -> None:
    """Check the fields of the frozen dataclass ``spec`` by their annotation
    (schema) and store them as Python numbers and tuples.  An ``int`` or
    ``float`` field goes through as_number; a ``bool`` field must hold a
    bool; a ``tuple[float, ...]`` or ``tuple[int, ...]`` field takes a list,
    tuple or 1-D array, checked element by element.  A field annotated
    ``X | None``, ``tuple[X, ...]`` or ``X | tuple[X, ...]``, with X a config
    dataclass, takes what its annotation names, and a list or tuple of X
    where it names ``tuple[X, ...]``, stored as a tuple.  Any other field is
    left to the block.  Annotations are read as written, which needs the
    block's module to use ``from __future__ import annotations``."""
    for name, (kind, block) in schema(type(spec)).items():
        value = getattr(spec, name)
        if kind == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        if kind in ("int", "float"):
            object.__setattr__(spec, name, as_number(value, name, kind == "int"))
        elif kind in ("tuple[int, ...]", "tuple[float, ...]"):
            if not (isinstance(value, (list, tuple))
                    or isinstance(value, np.ndarray) and value.ndim == 1):
                raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
            object.__setattr__(spec, name, tuple(
                as_number(x, name, kind == "tuple[int, ...]") for x in value))
        elif block:
            if (value is None and kind.endswith(" | None")
                    or isinstance(value, block) and not kind.startswith("tuple")):
                continue
            if not ("tuple[" in kind and isinstance(value, (list, tuple))
                    and all(isinstance(b, block) for b in value)):
                raise ConfigError(f"{name}: expected {kind}, got {value!r:.80}")
            object.__setattr__(spec, name, tuple(value))


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
class InteractionParams:
    """Per-agent gains of the interaction law.

    delta   target spacing factor; preferred distance is delta * |N_i| (m)
    eta     alignment scale; preferred relative speed is eta / |N_i| (m/s)
    alpha   exponent of the aggregation weight
    beta    exponent of the alignment weight
    radius  neighborhood radius r_i (m)
    v_max   speed ceiling applied by the saturation map (m/s)
    t_vmax  time to reach v_max from rest; the rate limit is v_max / t_vmax (s)
    """

    delta: float = 1.0
    eta: float = 3.0
    alpha: float = 2.0
    beta: float = 1.0
    radius: float = 10.0
    v_max: float = 5.0
    t_vmax: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.delta < 0 or self.eta < 0:
            raise ConfigError("delta and eta must be non-negative")
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha and beta must be positive")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")
        if self.v_max <= 0 or self.t_vmax <= 0:
            raise ConfigError("v_max and t_vmax must be positive")


AgentParams = namedtuple("AgentParams", [f.name for f in fields(InteractionParams)])
_block_fields = attrgetter(*AgentParams._fields)


def agent_params(params, n: int) -> AgentParams:
    """Per-agent table, one (n,) float column per InteractionParams field, of
    one block shared by n agents, of n blocks, or of a table (returned as is)."""
    if isinstance(params, AgentParams):
        return params
    if isinstance(params, InteractionParams):
        return AgentParams(*np.repeat(np.array([_block_fields(params)], dtype=float).T, n, axis=1))
    blocks = list(params)
    if len(blocks) != n or not all(isinstance(b, InteractionParams) for b in blocks):
        raise ValueError(f"need {n} InteractionParams blocks, got {len(blocks)}: {blocks!r:.50}")
    return AgentParams(*np.array(list(map(_block_fields, blocks)), dtype=float).T.copy())


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
        check_fields(self)
        if self.k_gain <= 0 or self.sigma_cs <= 0:
            raise ConfigError("k_gain and sigma_cs must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be non-negative")


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


def all_neighborhoods(positions: np.ndarray, radii) -> list[Neighborhood]:
    """neighborhood(i, positions, r_i) of every agent i.

    ``radii`` is a scalar or per-agent sequence.  Neighborhoods are
    directed when radii differ between agents.
    """
    positions = np.asarray(positions, dtype=float)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), positions.shape[:1]).tolist()
    return [neighborhood(i, positions, r) for i, r in enumerate(radii)]


def psi_weight(distance: float, delta: float, count: int, alpha: float) -> float:
    """Aggregation weight 1 - (delta * count / distance)^alpha.

    Negative below the preferred spacing delta * count (repulsion),
    positive above it (attraction), zero exactly at it.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    try:
        return 1.0 - (delta * count / distance) ** alpha
    except OverflowError:  # beyond the float range: -inf, as NumPy's power gives
        return -math.inf


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
    # Row norms and array powers, as the snapshot's: the 1-D norm and Python's pow
    # differ in the last bit, and that pow raises OverflowError where NumPy's gives inf.
    dist, dvn = np.linalg.norm(np.stack([dp, dv]), axis=1).tolist()
    if dist < EPS_POS:
        raise DegeneratePairError(i, j, "position")
    if dvn < EPS_VEL:
        raise DegeneratePairError(i, j, "velocity")
    p_off = np.array([params.delta * k / dist]) ** float(params.alpha) * dp
    v_off = np.array([params.eta / (k * dvn)]) ** float(params.beta) * dv
    return p_off, v_off


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of x, bit for bit: one dot product per row,
    as the 1-D norm takes; norm(x, axis=1) can differ in the last bit."""
    return np.sqrt(np.vecdot(x, x))


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
