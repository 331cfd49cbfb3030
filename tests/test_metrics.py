"""Unit tests for the order-parameter metrics.

Hand-computed anchors: three unit headings 120 degrees apart average to
-1/2; five headings 72 degrees apart average to -1/4; the unit
equilateral triangle has circumradius 1/sqrt(3) = 0.5773502691896258.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist, squareform

from flocksim import (
    InteractionParams,
    aggregation_radius,
    alignment_score,
    edge_errors,
    pair_distances,
    sample_metrics,
)
from flocksim.core import EPS_VEL
from flocksim.graph import _segment_sums, snapshot_of


def _headings(angles):
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


# ---------------------------------------------------------------------------
# Alignment score


def test_alignment_hand_values():
    assert alignment_score(np.array([[1.0, 0.0], [2.0, 0.0]])) == \
        pytest.approx(1.0, abs=1e-12)
    assert alignment_score(np.array([[1.0, 0.0], [-3.0, 0.0]])) == \
        pytest.approx(-1.0, abs=1e-12)
    assert alignment_score(np.array([[1.0, 0.0], [0.0, 5.0]])) == \
        pytest.approx(0.0, abs=1e-12)


def test_alignment_symmetric_direction_stars():
    three = _headings([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    assert alignment_score(three) == pytest.approx(-0.5, abs=1e-12)
    five = _headings([2 * math.pi * k / 5 for k in range(5)])
    assert alignment_score(five) == pytest.approx(-0.25, abs=1e-12)


def test_alignment_excludes_stopped_agents():
    v = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    assert alignment_score(v) == pytest.approx(1.0, abs=1e-12)


def test_alignment_nan_when_fewer_than_two_moving():
    assert math.isnan(alignment_score(np.array([[1.0, 0.0], [1e-12, 0.0]])))
    assert math.isnan(alignment_score(np.zeros((3, 2))))


def test_alignment_rejects_bad_shapes():
    with pytest.raises(ValueError):
        alignment_score(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        alignment_score(np.array([[1.0, 0.0]]))


def test_alignment_invariances():
    rng = np.random.default_rng(15)
    for _ in range(10):
        v = rng.uniform(-3, 3, (7, 2))
        h = alignment_score(v)
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        assert alignment_score(v @ rot.T) == pytest.approx(h, abs=1e-12)
        perm = rng.permutation(7)
        assert alignment_score(v[perm]) == pytest.approx(h, abs=1e-12)
        scales = rng.uniform(0.5, 4.0, (7, 1))
        assert alignment_score(v * scales) == pytest.approx(h, abs=1e-12)


def test_alignment_stays_in_unit_interval():
    rng = np.random.default_rng(25)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(2, 4))
        h = alignment_score(rng.uniform(-5, 5, (n, m)))
        assert -1.0 - 1e-12 <= h <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Aggregation radius and pair distances


def test_aggregation_radius_equilateral():
    side = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert aggregation_radius(side) == pytest.approx(
        0.5773502691896258, rel=1e-12)


def test_aggregation_radius_translation_invariant():
    rng = np.random.default_rng(9)
    p = rng.uniform(0, 10, (6, 3))
    r = aggregation_radius(p)
    assert aggregation_radius(p + np.array([100.0, -40.0, 7.0])) == \
        pytest.approx(r, rel=1e-9)


def test_aggregation_radius_degenerate_cases():
    assert aggregation_radius(np.array([[3.0, 4.0]])) == 0.0
    assert aggregation_radius(np.tile([2.0, 2.0], (4, 1))) == 0.0
    with pytest.raises(ValueError):
        aggregation_radius(np.array([1.0, 2.0]))


def test_pair_distances_hand_values():
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    d_avg, d_min = pair_distances(collinear)
    assert d_avg == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert d_min == 1.0
    with pytest.raises(ValueError):
        pair_distances(np.array([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# Assembled sample


def test_sample_metrics_matches_components():
    rng = np.random.default_rng(41)
    pos = rng.uniform(0, 10, (6, 2))
    vel = rng.uniform(-2, 2, (6, 2))
    p = InteractionParams(radius=8.0)
    s = sample_metrics(2.5, pos, vel, [p] * 6)
    assert s.time == 2.5
    assert s.h == alignment_score(vel)
    assert s.r_agg == aggregation_radius(pos)
    assert (s.d_avg, s.d_min) == pair_distances(pos)

    err = edge_errors(pos, vel, [p] * 6)
    rows = err.agent_mean_pos[~np.isnan(err.agent_mean_pos).any(axis=1)]
    assert s.mean_edge_pos_err.tobytes() == rows.mean(axis=0).tobytes()
    rows_v = err.agent_mean_vel[~np.isnan(err.agent_mean_vel).any(axis=1)]
    assert s.mean_edge_vel_err.tobytes() == rows_v.mean(axis=0).tobytes()


def _reference_sample(time, pos, vel, params):
    """sample_metrics and edge_errors in the np.mean, np.linalg.norm and
    compress forms they replaced: ((time, h, r_agg, d_avg, d_min, mean pos
    error, mean vel error), per-agent mean pos error, per-agent mean vel error)."""
    s = snapshot_of(pos, vel, params)
    n, m = pos.shape
    means = []
    for valid, d, w in ((s.pos_valid, s.dp.T, s.w_pos), (s.vel_valid, s.dv.T, s.w_vel)):
        res = d - w[:, None] * d
        res[~valid] = 0.0
        rcv = s.graph.receivers.compress(valid)
        total = _segment_sums(rcv, res.compress(valid, axis=0).T, n)
        count = np.bincount(rcv, minlength=n).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            agent = np.where(count[:, None] > 0, total / count[:, None], np.nan)
        rows = agent[~np.isnan(agent).any(axis=1)]
        means.append((agent, rows.mean(axis=0) if rows.size else np.full(m, np.nan)))
    speeds = np.linalg.norm(vel, axis=1)
    moving = speeds >= EPS_VEL
    k = int(np.count_nonzero(moving))
    total = (vel[moving] / speeds[moving, None]).sum(axis=0)
    h = 0.5 * (float(total @ total) - k) / (k * (k - 1) / 2) if k >= 2 else float("nan")
    r_agg = float(np.linalg.norm(pos - pos.mean(axis=0), axis=1).max())
    d = squareform(cdist(pos, pos), checks=False)
    row = (float(time), h, r_agg, float(d.mean()), float(d.min()), means[0][1], means[1][1])
    return row, means[0][0], means[1][0]


def test_sample_metrics_and_edge_errors_equal_reference_forms():
    # Bit for bit, on seeded states with coincident pairs, equal velocities,
    # an isolated agent (a NaN row of per-agent means), per-agent radii and
    # adapted (per-agent) delta/eta, in 2-D and 3-D.
    rng = np.random.default_rng(43)
    seen = {"isolated": 0, "coincident": 0, "equal_vel": 0, "all_nan": 0, "dims": set()}
    for trial in range(60):
        n, m = int(rng.integers(3, 16)), 2 + trial % 2
        pos = rng.uniform(0.0, 6.0, (n, m))
        vel = rng.uniform(-2.0, 2.0, (n, m))
        pos[1] = pos[0]
        vel[2] = vel[1]
        pos[-1] += 100.0  # isolated: no in-edge
        if trial % 10 == 0:
            vel[:] = 0.0  # nobody moves: h is NaN
        params = [InteractionParams(delta=float(rng.uniform(0.2, 3.0)),
                                    eta=float(rng.uniform(0.0, 15.0)),
                                    radius=float(rng.uniform(2.0, 10.0)) if trial % 7 else 0.5)
                  for _ in range(n)]
        t = float(rng.uniform(0.0, 30.0))
        want, want_pos, want_vel = _reference_sample(t, pos, vel, params)
        got = sample_metrics(t, pos, vel, params)
        assert np.array(got.mean_edge_pos_err).shape == (m,)
        for g, w in zip(dataclasses.astuple(got), want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), trial
        err = edge_errors(pos, vel, params)
        assert err.agent_mean_pos.tobytes() == want_pos.tobytes()
        assert err.agent_mean_vel.tobytes() == want_vel.tobytes()
        seen["isolated"] += int(np.isnan(want_pos[-1]).all())
        seen["coincident"] += int(not snapshot_of(pos, vel, params).pos_valid.all())
        seen["equal_vel"] += int(not snapshot_of(pos, vel, params).vel_valid.all())
        seen["all_nan"] += int(np.isnan(want[5]).all())
        seen["dims"].add(m)
    assert seen["isolated"] == 60 and seen["coincident"] >= 40 and seen["equal_vel"] >= 40
    assert seen["all_nan"] >= 5 and seen["dims"] == {2, 3}


def test_sample_metrics_no_edges_yields_nan_errors():
    pos = np.array([[0.0, 0.0], [100.0, 0.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = sample_metrics(0.0, pos, vel, [InteractionParams(radius=5.0)] * 2)
    assert np.isnan(s.mean_edge_pos_err).all()
    assert np.isnan(s.mean_edge_vel_err).all()
    assert s.d_min == pytest.approx(100.0)
    assert s.h == pytest.approx(0.0, abs=1e-12)


def test_sample_metrics_three_dimensional():
    rng = np.random.default_rng(52)
    pos = rng.uniform(0, 5, (4, 3))
    vel = rng.uniform(-1, 1, (4, 3))
    s = sample_metrics(1.0, pos, vel, [InteractionParams(radius=20.0)] * 4)
    assert s.mean_edge_pos_err.shape == (3,)
    assert s.mean_edge_vel_err.shape == (3,)
    assert np.isfinite(s.mean_edge_pos_err).all()
