"""Unit tests for the pairwise interaction law.

Numeric anchors are frozen from independent scalar/high-precision
computation, and the vectorized acceleration is checked against a plain
Python re-summation over seeded random configurations.
"""

import math

import numpy as np
import pytest

from flocksim import (
    EPS_POS,
    EPS_VEL,
    CuckerSmaleParams,
    DegeneratePairError,
    InteractionParams,
    Neighborhood,
    cucker_smale_acceleration,
    edge_errors,
    interaction_acceleration,
    neighborhood,
    offset_vectors,
    phi_weight,
    psi_weight,
    rate_limit,
    saturate_velocity,
)
from flocksim.core import AgentParams, agent_params, all_neighborhoods


def _oracle_accel(i, positions, velocities, p):
    """Plain-Python re-summation of the aggregation and alignment terms."""
    n, m = positions.shape
    members = [
        j for j in range(n)
        if j != i and math.dist(positions[i], positions[j]) <= p.radius
    ]
    k = len(members)
    out = [0.0] * m
    for j in members:
        dp = [positions[j][a] - positions[i][a] for a in range(m)]
        dv = [velocities[j][a] - velocities[i][a] for a in range(m)]
        d = math.sqrt(sum(x * x for x in dp))
        s = math.sqrt(sum(x * x for x in dv))
        w_p = 1.0 - (p.delta * k / d) ** p.alpha
        for a in range(m):
            out[a] += w_p * dp[a]
        if s >= EPS_VEL:
            w_v = 1.0 - (p.eta / (k * s)) ** p.beta
            for a in range(m):
                out[a] += w_v * dv[a]
    return np.array(out)


def _guard_free_config(rng, n, m):
    """Random state with no coincident pair and no equal-velocity pair."""
    while True:
        pos = rng.uniform(0.0, 8.0, (n, m))
        vel = rng.uniform(-3.0, 3.0, (n, m))
        dd = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        dv = np.linalg.norm(vel[:, None, :] - vel[None, :, :], axis=2)
        off = ~np.eye(n, dtype=bool)
        if dd[off].min() > 1e-6 and dv[off].min() > 1e-6:
            return pos, vel


# ---------------------------------------------------------------------------
# Types


def test_interaction_params_defaults():
    p = InteractionParams()
    assert p.delta == 1.0
    assert p.eta == 3.0
    assert p.alpha == 2.0
    assert p.beta == 1.0
    assert p.radius == 10.0
    assert p.v_max == 5.0
    assert p.t_vmax == 1.0


@pytest.mark.parametrize("bad", [
    {"delta": -0.1},
    {"eta": -1.0},
    {"alpha": 0.0},
    {"beta": -2.0},
    {"radius": 0.0},
    {"v_max": 0.0},
    {"t_vmax": -1.0},
    {"delta": float("nan")},
    {"radius": float("inf")},
    {"eta": "3"},
])
def test_interaction_params_validation(bad):
    with pytest.raises(ValueError):
        InteractionParams(**bad)


def test_agent_params_table():
    one = InteractionParams(delta=0.5, eta=2.0, radius=4.0, v_max=3.0)
    shared = agent_params(one, 3)
    assert shared._fields == tuple(f for f in InteractionParams.__dataclass_fields__)
    for name in shared._fields:
        col = getattr(shared, name)
        assert col.dtype == float and col.shape == (3,)
        np.testing.assert_array_equal(col, np.full(3, getattr(one, name)))
    # The tiled shared row is bit for bit the table of three equal blocks.
    assert np.array(shared).tobytes() == np.array(agent_params([one] * 3, 3)).tobytes()
    blocks = [InteractionParams(delta=d, alpha=a) for d, a in ((0.2, 1.5), (0.7, 2.0))]
    table = agent_params(blocks, 2)
    np.testing.assert_array_equal(table.delta, [0.2, 0.7])
    np.testing.assert_array_equal(table.alpha, [1.5, 2.0])
    np.testing.assert_array_equal(table.eta, [3.0, 3.0])
    assert agent_params(table, 2) is table
    assert isinstance(table, AgentParams)
    with pytest.raises(ValueError):
        agent_params(blocks, 3)
    with pytest.raises(ValueError):
        agent_params([one, {"delta": 1.0}], 2)


def test_cucker_smale_params_validation():
    CuckerSmaleParams(k_gain=1.0, sigma_cs=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        CuckerSmaleParams(k_gain=0.0)
    with pytest.raises(ValueError):
        CuckerSmaleParams(sigma_cs=-1.0)
    with pytest.raises(ValueError):
        CuckerSmaleParams(gamma=-0.5)


def test_neighborhood_sorts_members():
    nbrs = Neighborhood((3, 1, 2))
    assert nbrs.members == (1, 2, 3)
    assert nbrs.count == 3
    assert Neighborhood(()).count == 0


# ---------------------------------------------------------------------------
# Neighborhoods


def test_neighborhood_boundary_included():
    pos = np.array([[0.0, 0.0], [10.0, 0.0]])
    assert neighborhood(0, pos, 10.0).members == (1,)
    pos_far = np.array([[0.0, 0.0], [10.1, 0.0]])
    assert neighborhood(0, pos_far, 10.0).members == ()


def test_neighborhood_excludes_self():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert neighborhood(1, pos, 5.0).members == (0, 2)


def test_neighborhood_rejects_bad_input():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(IndexError):
        neighborhood(2, pos, 5.0)
    with pytest.raises(ValueError):
        neighborhood(0, pos, 0.0)


def test_neighborhoods_directed_with_unequal_radii():
    # Agent 0 sees agent 1, but agent 1's smaller radius excludes agent 0.
    pos = np.array([[0.0, 0.0], [3.0, 0.0]])
    nbrs = all_neighborhoods(pos, [5.0, 1.0])
    assert nbrs[0].members == (1,)
    assert nbrs[1].members == ()


# ---------------------------------------------------------------------------
# Weight functions


def test_psi_weight_zero_at_preferred_spacing():
    assert psi_weight(3.0, 1.0, 3, 2.0) == 0.0
    assert psi_weight(5.0, 2.5, 2, 1.0) == 0.0


def test_psi_weight_sign_and_frozen_value():
    # 1 - (1*3/6)^2 = 0.75
    assert psi_weight(6.0, 1.0, 3, 2.0) == pytest.approx(0.75, rel=1e-15)
    assert psi_weight(1.0, 1.0, 3, 2.0) < 0  # closer than preferred: repulsion
    assert psi_weight(100.0, 1.0, 3, 2.0) > 0  # farther: attraction
    # A power beyond the float range saturates to -inf instead of raising.
    assert psi_weight(EPS_POS, 1e160, 1, 2.0) == -math.inf


def test_psi_weight_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        psi_weight(0.0, 1.0, 3, 2.0)
    with pytest.raises(ValueError):
        psi_weight(-1.0, 1.0, 3, 2.0)


def test_phi_weight_zero_at_preferred_speed():
    assert phi_weight(1.0, 3.0, 3, 1.0) == 0.0
    assert phi_weight(2.0, 4.0, 2, 2.0) == 0.0


def test_phi_weight_sign_and_frozen_value():
    # 1 - (3/(3*2))^1 = 0.5
    assert phi_weight(2.0, 3.0, 3, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert phi_weight(0.5, 3.0, 3, 1.0) < 0
    assert phi_weight(10.0, 3.0, 3, 1.0) > 0


def test_phi_weight_rejects_bad_input():
    with pytest.raises(ValueError):
        phi_weight(0.0, 3.0, 3, 1.0)
    with pytest.raises(ValueError):
        phi_weight(1.0, 3.0, 0, 1.0)


# ---------------------------------------------------------------------------
# Offset vectors


def test_offset_vectors_frozen_values():
    # Single neighbor (k=1) at distance 5: p_off = (2*1/5)^2 * dp,
    # v_off = (3/(1*2))^1 * dv.
    pos = np.array([[0.0, 0.0], [3.0, 4.0]])
    vel = np.array([[0.0, 0.0], [0.0, 2.0]])
    p = InteractionParams(delta=2.0, eta=3.0, alpha=2.0, beta=1.0, radius=10.0)
    p_off, v_off = offset_vectors(0, 1, pos, vel, p)
    np.testing.assert_allclose(p_off, [0.48, 0.64], rtol=1e-12)
    np.testing.assert_allclose(v_off, [0.0, 3.0], rtol=1e-12)


def test_offset_residual_is_weighted_difference():
    rng = np.random.default_rng(21)
    p = InteractionParams(delta=0.8, eta=1.7, alpha=2.0, beta=1.0, radius=20.0)
    for _ in range(10):
        pos, vel = _guard_free_config(rng, 4, 2)
        nbrs = neighborhood(0, pos, p.radius)
        k = nbrs.count
        for j in nbrs.members:
            p_off, v_off = offset_vectors(0, j, pos, vel, p, nbrs=nbrs)
            dp = pos[j] - pos[0]
            dv = vel[j] - vel[0]
            d = np.linalg.norm(dp)
            s = np.linalg.norm(dv)
            psi = psi_weight(float(d), p.delta, k, p.alpha)
            phi = phi_weight(float(s), p.eta, k, p.beta)
            np.testing.assert_allclose(dp - p_off, psi * dp, atol=1e-12)
            np.testing.assert_allclose(dv - v_off, phi * dv, atol=1e-12)


def test_offset_vectors_degenerate_pairs():
    p = InteractionParams()
    pos = np.array([[0.0, 0.0], [0.0, 0.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegeneratePairError) as exc:
        offset_vectors(0, 1, pos, vel, p)
    assert exc.value.kind == "position"
    assert (exc.value.i, exc.value.j) == (0, 1)

    pos = np.array([[0.0, 0.0], [3.0, 0.0]])
    vel = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegeneratePairError) as exc:
        offset_vectors(0, 1, pos, vel, p)
    assert exc.value.kind == "velocity"

    # Exactly at the thresholds the pair is regular, as in
    # interaction_acceleration (separated iff dist >= EPS_POS).
    pos = np.array([[0.0, 0.0], [EPS_POS, 0.0]])
    vel = np.array([[0.0, 0.0], [0.0, EPS_VEL]])
    p_off, v_off = offset_vectors(0, 1, pos, vel, p)
    np.testing.assert_array_equal(p_off, (p.delta / EPS_POS) ** p.alpha * pos[1])
    np.testing.assert_array_equal(v_off, (p.eta / EPS_VEL) ** p.beta * vel[1])

    # Isolated agent: empty neighborhood.
    tiny = InteractionParams(radius=0.5)
    pos = np.array([[0.0, 0.0], [3.0, 0.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegeneratePairError):
        offset_vectors(0, 1, pos, vel, tiny)

    with pytest.raises(IndexError):
        offset_vectors(0, 0, pos, vel, p)


def test_offset_weight_beyond_the_float_range_is_the_snapshots():
    # (1e200 / 1e-9)**2 overflows: inf, as NumPy's power and edge_errors give,
    # where Python's scalar pow raised OverflowError.
    pos = np.array([[0.0, 0.0], [EPS_POS, 0.0]])
    vel = np.array([[0.0, 0.0], [1.0, 0.0]])
    p = InteractionParams(delta=1e200, radius=1.0)
    with np.errstate(all="ignore"):
        p_off, _ = offset_vectors(0, 1, pos, vel, p)
        err = edge_errors(pos, vel, p)
    assert p_off[0] == np.inf
    assert err.pos[0].tobytes() == (pos[1] - p_off).tobytes()  # edge 1 -> 0


# ---------------------------------------------------------------------------
# Interaction acceleration


def test_interaction_acceleration_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, 4))
        pos, vel = _guard_free_config(rng, n, m)
        p = InteractionParams(
            delta=float(rng.uniform(0.0, 5.0)),
            eta=float(rng.uniform(0.0, 5.0)),
            alpha=float(rng.choice([1.0, 2.0])),
            beta=float(rng.choice([1.0, 2.0])),
            radius=float(rng.uniform(2.0, 12.0)),
        )
        for i in range(n):
            got = interaction_acceleration(i, pos, vel, p)
            want = _oracle_accel(i, pos, vel, p)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_interaction_acceleration_empty_neighborhood():
    pos = np.array([[0.0, 0.0], [100.0, 0.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    acc = interaction_acceleration(0, pos, vel, InteractionParams(radius=10.0))
    np.testing.assert_array_equal(acc, np.zeros(2))


def test_interaction_acceleration_zero_relative_velocity():
    # Equal velocities: the alignment term must vanish exactly, leaving
    # only the weighted position difference.
    pos = np.array([[0.0, 0.0], [4.0, 0.0]])
    vel = np.array([[1.0, 0.5], [1.0, 0.5]])
    p = InteractionParams(delta=1.0, alpha=2.0, radius=10.0)
    acc = interaction_acceleration(0, pos, vel, p)
    psi = psi_weight(4.0, p.delta, 1, p.alpha)
    np.testing.assert_array_equal(acc, psi * (pos[1] - pos[0]))


def test_interaction_acceleration_coincident_pair_impulse():
    # Overlapping agents get equal-and-opposite separation impulses along
    # the first axis, scaled by the guard-band weight.
    pos = np.array([[5.0, 5.0], [5.0, 5.0]])
    vel = np.array([[0.3, 0.0], [0.3, 0.0]])
    p = InteractionParams(delta=1.0, alpha=2.0, radius=10.0)
    a0 = interaction_acceleration(0, pos, vel, p)
    a1 = interaction_acceleration(1, pos, vel, p)
    w = psi_weight(EPS_POS, p.delta, 1, p.alpha)
    np.testing.assert_allclose(a0, [w, 0.0], rtol=1e-12)
    np.testing.assert_allclose(a1, [-w, 0.0], rtol=1e-12)
    assert np.all(np.isfinite(a0)) and np.all(np.isfinite(a1))


# ---------------------------------------------------------------------------
# Saturation and rate limit


def test_saturate_velocity_frozen_example():
    # Speed 5 against ceiling 5 contracts by tanh(1).
    out = saturate_velocity(np.array([3.0, 4.0]), 5.0)
    np.testing.assert_allclose(
        out, [2.284782467867295, 3.046376623823060], rtol=1e-12)
    assert np.linalg.norm(out) == pytest.approx(3.807970779778824, rel=1e-12)


def test_saturate_velocity_second_anchor():
    out = saturate_velocity(np.array([0.0, 12.0]), 5.0)
    np.testing.assert_allclose(out, [0.0, 4.918374288468401], rtol=1e-12)


def test_saturate_velocity_near_zero_returns_copy():
    v = np.array([1e-12, 0.0])
    out = saturate_velocity(v, 5.0)
    np.testing.assert_array_equal(out, v)
    assert out is not v


def test_saturate_velocity_caps_and_preserves_direction():
    rng = np.random.default_rng(7)
    for _ in range(25):
        v = rng.uniform(-10, 10, 3)
        if np.linalg.norm(v) < 1e-6:
            continue
        v_max = float(rng.uniform(0.5, 6.0))
        out = saturate_velocity(v, v_max)
        speed = np.linalg.norm(out)
        assert speed < v_max
        assert speed == pytest.approx(
            v_max * math.tanh(np.linalg.norm(v) / v_max), rel=1e-12)
        cos = float(out @ v / (speed * np.linalg.norm(v)))
        assert cos == pytest.approx(1.0, abs=1e-12)


def test_saturate_velocity_rejects_bad_vmax():
    with pytest.raises(ValueError):
        saturate_velocity(np.array([1.0, 0.0]), 0.0)


def test_rate_limit_above_and_below():
    a = np.array([3.0, 4.0])
    out = rate_limit(a, 2.5)
    assert np.linalg.norm(out) == pytest.approx(2.5, rel=1e-12)
    np.testing.assert_allclose(out, [1.5, 2.0], rtol=1e-12)
    kept = rate_limit(a, 10.0)
    np.testing.assert_array_equal(kept, a)
    assert kept is not a
    with pytest.raises(ValueError):
        rate_limit(a, 0.0)


# ---------------------------------------------------------------------------
# Comparison law


def test_cucker_smale_frozen_hand_value():
    # Distance 3 with K=1, sigma=1, gamma=0.5: weight 1/sqrt(4) = 0.5.
    pos = np.array([[0.0, 0.0], [3.0, 0.0]])
    vel = np.array([[0.0, 0.0], [1.0, 0.0]])
    cs = CuckerSmaleParams(k_gain=1.0, sigma_cs=1.0, gamma=0.5)
    acc = cucker_smale_acceleration(0, pos, vel, cs)
    np.testing.assert_array_equal(acc, [0.5, 0.0])


def test_cucker_smale_matches_scalar_oracle():
    rng = np.random.default_rng(99)
    cs = CuckerSmaleParams(k_gain=1.3, sigma_cs=0.8, gamma=0.7)
    for _ in range(10):
        pos = rng.uniform(0, 10, (6, 2))
        vel = rng.uniform(-2, 2, (6, 2))
        for i in range(6):
            want = np.zeros(2)
            for j in range(6):
                d = math.dist(pos[i], pos[j])
                w = cs.k_gain / (cs.sigma_cs**2 + d) ** cs.gamma
                want += w * (vel[j] - vel[i])
            got = cucker_smale_acceleration(i, pos, vel, cs)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_cucker_smale_consensus_is_fixed_point():
    # Identical velocities: every pairwise term vanishes.
    pos = np.array([[0.0, 0.0], [3.0, 1.0], [5.0, 4.0]])
    vel = np.tile([1.0, -0.5], (3, 1))
    cs = CuckerSmaleParams()
    for i in range(3):
        np.testing.assert_array_equal(
            cucker_smale_acceleration(i, pos, vel, cs), np.zeros(2))


def test_guard_constants():
    assert EPS_POS == 1e-9
    assert EPS_VEL == 1e-9
