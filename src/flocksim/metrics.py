"""Order parameters of collective motion: alignment, cohesion, spacing.

All functions are pure snapshot statistics; NaN is the sentinel for
metrics that are undefined on a snapshot (e.g. alignment with fewer
than two moving agents).  Means and row norms call np.add.reduce: the
arithmetic of np.mean and np.linalg.norm(axis=1), without their wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EPS_VEL
from .graph import Snapshot, _condensed, _distances, edge_errors, snapshot_of


@dataclass(frozen=True)
class MetricSample:
    """Snapshot metrics at one timestamp.

    mean_edge_pos_err / mean_edge_vel_err are per-axis vectors: the mean
    over agents of their average in-edge interaction residuals (NaN when
    no agent has a valid in-edge).
    """

    time: float
    h: float
    r_agg: float
    d_avg: float
    d_min: float
    mean_edge_pos_err: np.ndarray
    mean_edge_vel_err: np.ndarray


def alignment_score(velocities: np.ndarray) -> float:
    """Mean cosine between unit velocities over unordered distinct pairs.

    Agents slower than EPS_VEL carry no direction and are excluded;
    fewer than two remaining agents yields NaN.
    """
    v = np.asarray(velocities, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("need a (n >= 2, m) velocity array")
    speeds = np.sqrt(np.add.reduce(v * v, axis=1))
    moving = speeds >= EPS_VEL
    k = int(np.count_nonzero(moving))
    if k < 2:
        return float("nan")
    u = v[moving] / speeds[moving, None]
    total = np.add.reduce(u, axis=0)
    # Sum of cos over ordered pairs is ||sum u||^2 - k; halve for unordered.
    pair_sum = 0.5 * (float(total @ total) - k)
    return pair_sum / (k * (k - 1) / 2)


def aggregation_radius(positions: np.ndarray) -> float:
    """Largest distance from any agent to the group centroid."""
    p = np.asarray(positions, dtype=float)
    if p.ndim != 2 or p.shape[0] < 1:
        raise ValueError("need a (n >= 1, m) position array")
    d = p - np.add.reduce(p, axis=0) / p.shape[0]
    return float(np.sqrt(np.add.reduce(d * d, axis=1)).max())


def pair_distances(positions: np.ndarray,
                   distances: np.ndarray | None = None) -> tuple[float, float]:
    """(average, minimum) distance over unordered distinct pairs, which are
    scipy pdist's bit for bit; ``distances`` may carry the Snapshot's matrix."""
    p = np.asarray(positions, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2:
        raise ValueError("need a (n >= 2, m) position array")
    d = _condensed(_distances(p) if distances is None else distances)
    return float(np.add.reduce(d) / d.shape[0]), float(np.minimum.reduce(d))


def sample_metrics(time: float, positions: np.ndarray, velocities: np.ndarray,
                   params, snapshot: Snapshot | None = None) -> MetricSample:
    """Assemble the full per-snapshot metric row; ``snapshot`` may carry
    graph.snapshot_of(positions, velocities, params)."""
    positions = np.asarray(positions, dtype=float)
    m = positions.shape[1]
    snapshot = snapshot_of(positions, velocities, params) if snapshot is None else snapshot
    err = edge_errors(positions, velocities, params, snapshot)
    with np.errstate(invalid="ignore"):
        pos_rows = err.agent_mean_pos[~np.isnan(err.agent_mean_pos).any(axis=1)]
        vel_rows = err.agent_mean_vel[~np.isnan(err.agent_mean_vel).any(axis=1)]
    mean_pos, mean_vel = (np.add.reduce(rows, axis=0) / len(rows) if rows.size
                          else np.full(m, np.nan) for rows in (pos_rows, vel_rows))
    d_avg, d_min = pair_distances(positions, snapshot.distances)
    return MetricSample(
        time=float(time),
        h=alignment_score(velocities),
        r_agg=aggregation_radius(positions),
        d_avg=d_avg,
        d_min=d_min,
        mean_edge_pos_err=mean_pos,
        mean_edge_vel_err=mean_vel,
    )
