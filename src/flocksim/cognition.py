"""Energy bookkeeping and neighborhood-aware parameter adaptation.

Agents spend energy at a rate set by their applied acceleration plus a
constant metabolic drain, so energy decreases strictly.  Each agent
compares its energy against a threshold blended toward the weakest
neighbor: the lower its energy relative to that threshold, the smaller
its spacing offset delta and alignment offset eta become, which shifts
the group from loose swarming toward tight, cheap flocking.
apply_adaptation replaces only the delta and eta columns of the
per-agent parameter table (core.AgentParams) the engine steps with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AgentParams, ConfigError, Neighborhood, agent_params, check_fields
from .graph import InteractionGraph, build_graph


@dataclass(frozen=True)
class EnergyState:
    """Initial energy, at which every agent starts, and the drain coefficients.

    dE/dt = -c1 * ||a||^2 - c2, so c2 > 0 guarantees strict decrease.
    """

    initial: float
    c1: float = 0.15
    c2: float = 0.015

    def __post_init__(self):
        check_fields(self)
        if self.c1 < 0 or self.c2 <= 0:
            raise ConfigError("require c1 >= 0 and c2 > 0")
        if self.initial <= 0:
            raise ConfigError("initial energy must be positive")


@dataclass(frozen=True)
class AdaptationParams:
    """Bounds and gains of the sigmoid parameter adaptation."""

    delta_min: float = 0.5
    delta_max: float = 2.0
    eta_min: float = 3.0
    eta_max: float = 15.0
    k_delta: float = 0.5
    k_eta: float = 0.5
    e_th: float = 40.0

    def __post_init__(self):
        check_fields(self)
        if not (0 <= self.delta_min <= self.delta_max):
            raise ConfigError("require 0 <= delta_min <= delta_max")
        if not (0 <= self.eta_min <= self.eta_max):
            raise ConfigError("require 0 <= eta_min <= eta_max")
        if self.k_delta <= 0 or self.k_eta <= 0:
            raise ConfigError("adaptation gains must be positive")


def _sigmoid(x: float) -> float:
    # Overflow-safe logistic; exact 0.5 at x == 0.
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def energy_derivative(accel: np.ndarray, c1: float, c2: float) -> float:
    """Energy rate -c1 * ||accel||^2 - c2 (always <= -c2)."""
    a = np.asarray(accel, dtype=float)
    return -c1 * float(a @ a) - c2


def low_energy_fraction(energies: np.ndarray, nbrs: Neighborhood, e_th: float) -> float:
    """Fraction mu of neighbors with energy strictly below e_th.

    Empty neighborhood yields 0 (no evidence of a tired group).
    """
    if nbrs.count == 0:
        return 0.0
    energies = np.asarray(energies, dtype=float)
    idx = np.fromiter(nbrs.members, dtype=int, count=nbrs.count)
    return float(np.count_nonzero(energies[idx] < e_th)) / nbrs.count


def adaptive_threshold(energies: np.ndarray, nbrs: Neighborhood, e_th: float) -> float:
    """Per-agent threshold E_th,i = e_th - mu * (e_th - min neighbor energy).

    Interpolates from the global threshold (mu = 0) to the weakest
    neighbor's energy (mu = 1); an empty neighborhood keeps e_th.
    """
    mu = low_energy_fraction(energies, nbrs, e_th)
    if nbrs.count == 0:
        return float(e_th)
    energies = np.asarray(energies, dtype=float)
    idx = np.fromiter(nbrs.members, dtype=int, count=nbrs.count)
    e_min = float(energies[idx].min())
    return float(e_th - mu * (e_th - e_min))


def adaptive_delta(energy: float, threshold: float, p: AdaptationParams) -> float:
    """Sigmoid interpolation of delta between delta_min and delta_max.

    Low energy relative to the threshold drives delta toward delta_min
    (tighter spacing); the midpoint (delta_min + delta_max)/2 is hit
    exactly at energy == threshold.
    """
    rise = _sigmoid(p.k_delta * (energy - threshold))
    return p.delta_min + (p.delta_max - p.delta_min) * rise


def adaptive_eta(energy: float, threshold: float, p: AdaptationParams) -> float:
    """Sigmoid interpolation of eta between eta_min and eta_max."""
    rise = _sigmoid(p.k_eta * (energy - threshold))
    return p.eta_min + (p.eta_max - p.eta_min) * rise


def apply_adaptation(
    positions: np.ndarray,
    energies: np.ndarray,
    params,
    adaptation: AdaptationParams,
    g: InteractionGraph | None = None,
) -> AgentParams:
    """The table of ``params`` with every agent's (delta, eta) recomputed from the snapshot.

    adaptive_threshold's mu and minimum come from counts and minima over
    the in-edges of ``g`` (built if omitted), all from the passed-in
    energies, so the update order cannot leak into the result.
    """
    energies = np.asarray(energies, dtype=float)
    n = energies.shape[0]
    params = agent_params(params, n)
    if len(positions) != n:
        raise ValueError("positions, energies and params must agree on n")
    if g is None:
        g = build_graph(positions, params)
    e_th = adaptation.e_th
    count = g.in_degrees()
    seen = energies[g.sources]
    low = np.bincount(g.receivers[seen < e_th], minlength=n)
    e_min = np.full(n, np.inf)
    np.minimum.at(e_min, g.receivers, seen)
    has = count > 0
    thr = np.full(n, float(e_th))
    thr[has] = e_th - low[has] / count[has] * (e_th - e_min[has])
    gap = energies - thr
    return params._replace(
        delta=_interpolate(adaptation.delta_min, adaptation.delta_max, adaptation.k_delta * gap),
        eta=_interpolate(adaptation.eta_min, adaptation.eta_max, adaptation.k_eta * gap))


def _interpolate(low: float, high: float, x: np.ndarray) -> np.ndarray:
    """low + (high - low) * _sigmoid(x) per element, bit for bit: the exp
    goes through math.exp, as np.exp differs in the last bit on ~5 % of
    inputs, and whole runs reproduce adaptive_delta/adaptive_eta."""
    up = x >= 0  # NaN takes _sigmoid's x < 0 branch, as there
    z = np.array(list(map(math.exp, np.where(up, -x, x).tolist())))
    return low + (high - low) * (np.where(up, 1.0, z) / (1.0 + z))
