"""Target attraction and obstacle repulsion layered on the interaction law.

The extended acceleration adds a linear pull toward a fixed target and,
for every obstacle within detection range, a repulsive push weighted by
``rho = min(0, 1 - (c/d)^sigma_o)``: zero outside the detection radius
``c`` by construction of the min, and strongly negative close to the
obstacle center.  add_environment_terms applies extended_acceleration's
terms to every agent at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_POS,
    ConfigError,
    InteractionParams,
    Neighborhood,
    _row_norms,
    check_fields,
    interaction_acceleration,
    psi_weight,
)


@dataclass(frozen=True)
class TargetSpec:
    """Attraction point with linear gain kappa (1/s^2); kappa=0 disables it."""

    position: tuple[float, ...]
    kappa: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if len(self.position) not in (2, 3):
            raise ConfigError("target position must have dimension 2 or 3")
        if self.kappa < 0:
            raise ConfigError("kappa must be non-negative")


@dataclass(frozen=True)
class ObstacleSpec:
    """Circular/spherical obstacle.

    radius     physical extent, used for clearance checks (m)
    detection  range c at which agents start reacting (m)
    sigma_o    steepness exponent of the repulsion weight
    """

    center: tuple[float, ...]
    radius: float
    detection: float
    sigma_o: float = 3.0

    def __post_init__(self):
        check_fields(self)
        if len(self.center) not in (2, 3):
            raise ConfigError("obstacle center must have dimension 2 or 3")
        if self.radius <= 0 or self.detection <= 0:
            raise ConfigError("radius and detection must be positive")
        if self.sigma_o <= 0:
            raise ConfigError("sigma_o must be positive")


def rho_weight(distance: float, detection: float, sigma_o: float) -> float:
    """Obstacle weight min(0, 1 - (detection/distance)^sigma_o), i.e.
    min(0, psi_weight(distance, detection, 1, sigma_o)).

    Exactly zero at and beyond the detection radius, negative inside it.
    Distances below EPS_POS are clamped to EPS_POS so the weight stays
    finite (huge repulsion rather than a singularity); a power beyond the
    float range gives -inf, as in psi_weight.
    """
    if detection <= 0:
        raise ValueError("detection must be positive")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    d = max(distance, EPS_POS)
    return min(0.0, psi_weight(d, detection, 1, sigma_o))


def detected_obstacles(position: np.ndarray, obstacles) -> list[ObstacleSpec]:
    """Obstacles whose center lies within their detection range of the agent."""
    p = np.asarray(position, dtype=float)
    out = []
    for o in obstacles:
        if np.linalg.norm(np.asarray(o.center) - p) <= o.detection:
            out.append(o)
    return out


def extended_acceleration(
    i: int,
    positions: np.ndarray,
    velocities: np.ndarray,
    params: InteractionParams,
    target: TargetSpec | None,
    obstacles=(),
    nbrs: Neighborhood | None = None,
) -> np.ndarray:
    """Interaction acceleration plus target attraction and obstacle repulsion.

    With no obstacles in range and kappa == 0 this returns exactly the
    plain interaction acceleration (the extra terms are skipped, not
    added as zeros).
    """
    positions = np.asarray(positions, dtype=float)
    acc = interaction_acceleration(i, positions, velocities, params, nbrs=nbrs)
    p = positions[i]
    if target is not None and target.kappa != 0.0:
        acc = acc + target.kappa * (np.asarray(target.position) - p)
    for o in detected_obstacles(p, obstacles):
        to_center = np.asarray(o.center) - p
        d = float(np.linalg.norm(to_center))
        acc = acc + rho_weight(d, o.detection, o.sigma_o) * to_center
    return acc


def add_environment_terms(acc: np.ndarray, positions: np.ndarray,
                          target: TargetSpec | None, obstacles=()) -> np.ndarray:
    """Interaction accelerations ``acc`` (n, m) plus each agent's target pull
    and obstacle pushes: row i is extended_acceleration(i, ...) bit for bit
    (same term order, kappa == 0 skipped, rho_weight per detected pair)."""
    positions = np.asarray(positions, dtype=float)
    acc = np.array(acc, dtype=float)
    if target is not None and target.kappa != 0.0:
        acc = acc + target.kappa * (np.asarray(target.position) - positions)
    if obstacles:  # every obstacle's offsets, distances and detections in one pass
        spec = np.array([(o.detection, o.sigma_o) for o in obstacles])
        to_center = np.array([o.center for o in obstacles], dtype=float)[:, None] - positions
        dist = _row_norms(to_center)
        ob, hit = np.nonzero(dist <= spec[:, :1])  # obstacle-major
        if hit.size:  # rho_weight per pair: Python's max, psi_weight and min, in array form
            d = dist[ob, hit]
            w = np.array(list(map(psi_weight, np.where(EPS_POS > d, EPS_POS, d).tolist(),
                                  spec[ob, 0].tolist(), [1] * d.size, spec[ob, 1].tolist())))
            # add.at adds in index order, so each agent's pushes in obstacle order.
            np.add.at(acc, hit, np.where(w < 0.0, w, 0.0)[:, None] * to_center[ob, hit])
    return acc
