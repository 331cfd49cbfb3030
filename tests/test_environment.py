"""Unit tests for target attraction and obstacle repulsion."""

import numpy as np
import pytest

from flocksim import (
    InteractionParams,
    ObstacleSpec,
    TargetSpec,
    detected_obstacles,
    extended_acceleration,
    interaction_acceleration,
    rho_weight,
)
from flocksim.environment import add_environment_terms


def test_target_spec_validation():
    t = TargetSpec(position=(90.0, 90.0), kappa=0.5)
    assert t.position == (90.0, 90.0)
    TargetSpec(position=(1.0, 2.0, 3.0), kappa=0.0)  # kappa = 0 disables the pull
    with pytest.raises(ValueError):
        TargetSpec(position=(1.0,), kappa=0.5)
    with pytest.raises(ValueError):
        TargetSpec(position=(1.0, 2.0), kappa=-0.1)


def test_obstacle_spec_validation():
    o = ObstacleSpec(center=(25.0, 30.0), radius=5.0, detection=15.0, sigma_o=3.0)
    assert o.center == (25.0, 30.0)
    with pytest.raises(ValueError):
        ObstacleSpec(center=(0.0,), radius=5.0, detection=15.0)
    with pytest.raises(ValueError):
        ObstacleSpec(center=(0.0, 0.0), radius=0.0, detection=15.0)
    with pytest.raises(ValueError):
        ObstacleSpec(center=(0.0, 0.0), radius=5.0, detection=0.0)
    with pytest.raises(ValueError):
        ObstacleSpec(center=(0.0, 0.0), radius=5.0, detection=15.0, sigma_o=0.0)


def test_rho_weight_zero_at_and_beyond_detection():
    assert rho_weight(15.0, 15.0, 3.0) == 0.0
    assert rho_weight(20.0, 15.0, 3.0) == 0.0
    assert rho_weight(1000.0, 15.0, 3.0) == 0.0


def test_rho_weight_frozen_value_inside():
    # 1 - (15/10)^3 = -2.375
    assert rho_weight(10.0, 15.0, 3.0) == pytest.approx(-2.375, rel=1e-15)
    assert rho_weight(5.0, 15.0, 3.0) < rho_weight(10.0, 15.0, 3.0)


def test_rho_weight_clamps_tiny_distance():
    at_zero = rho_weight(0.0, 15.0, 3.0)
    assert np.isfinite(at_zero)
    assert at_zero == rho_weight(1e-12, 15.0, 3.0)
    assert at_zero < -1e20  # enormous repulsion, not a singularity


def test_rho_weight_beyond_float_range_is_minus_inf():
    # (1000 / 1) ** 400 overflows a float: -inf, as psi_weight gives.
    assert rho_weight(1.0, 1000.0, 400.0) == -np.inf
    pos = np.array([[0.0, 0.5], [2.5, -1.0], [30.0, 30.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    p, target = InteractionParams(radius=6.0), TargetSpec(position=(9.0, 9.0))
    obstacles = (ObstacleSpec(center=(1.0, 1.0), radius=1.0, detection=1000.0, sigma_o=400.0),
                 ObstacleSpec(center=(3.0, -2.0), radius=1.0, detection=4.0))
    want = np.array([extended_acceleration(i, pos, vel, p, target, obstacles) for i in range(3)])
    plain = np.array([interaction_acceleration(i, pos, vel, p) for i in range(3)])
    assert np.isinf(want[:2]).all()  # two agents detect the overflowing obstacle
    assert add_environment_terms(plain, pos, target, obstacles).tobytes() == want.tobytes()


def test_rho_weight_rejects_bad_input():
    with pytest.raises(ValueError):
        rho_weight(1.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        rho_weight(-1.0, 15.0, 3.0)


def test_detected_obstacles_boundary():
    obstacles = [
        ObstacleSpec(center=(10.0, 0.0), radius=2.0, detection=10.0),
        ObstacleSpec(center=(50.0, 0.0), radius=2.0, detection=10.0),
    ]
    hits = detected_obstacles(np.array([0.0, 0.0]), obstacles)
    assert hits == [obstacles[0]]  # boundary distance 10 is inside; 50 is not
    assert detected_obstacles(np.array([100.0, 100.0]), obstacles) == []


def test_extended_acceleration_kappa_zero_identity():
    # A zero-gain target must reduce to the plain interaction law exactly.
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 10, (5, 2))
    vel = rng.uniform(-1, 1, (5, 2))
    p = InteractionParams()
    target = TargetSpec(position=(50.0, 50.0), kappa=0.0)
    for i in range(5):
        base = interaction_acceleration(i, pos, vel, p)
        ext = extended_acceleration(i, pos, vel, p, target)
        np.testing.assert_array_equal(ext, base)


def test_extended_acceleration_target_pull_alone():
    # Isolated agent, no obstacles in range: pure linear pull.
    pos = np.array([[0.0, 0.0], [500.0, 500.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = InteractionParams(radius=10.0)
    target = TargetSpec(position=(90.0, 90.0), kappa=0.5)
    acc = extended_acceleration(0, pos, vel, p, target)
    np.testing.assert_allclose(acc, [45.0, 45.0], rtol=1e-15)


def test_extended_acceleration_obstacle_pushes_away():
    # Obstacle at distance 10 with detection 15: weight -2.375, so the
    # term points from the obstacle center toward the agent.
    pos = np.array([[0.0, 0.0], [500.0, 500.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = InteractionParams(radius=10.0)
    obstacle = ObstacleSpec(center=(10.0, 0.0), radius=5.0, detection=15.0,
                            sigma_o=3.0)
    acc = extended_acceleration(0, pos, vel, p, None, obstacles=(obstacle,))
    np.testing.assert_allclose(acc, [-23.75, 0.0], rtol=1e-12)
    assert float(acc @ (np.array(obstacle.center) - pos[0])) < 0


def test_extended_acceleration_out_of_range_obstacle_ignored():
    pos = np.array([[0.0, 0.0], [500.0, 500.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = InteractionParams(radius=10.0)
    obstacle = ObstacleSpec(center=(100.0, 0.0), radius=5.0, detection=15.0)
    acc = extended_acceleration(0, pos, vel, p, None, obstacles=(obstacle,))
    np.testing.assert_array_equal(acc, np.zeros(2))


def test_extended_acceleration_composes_all_terms():
    rng = np.random.default_rng(17)
    p = InteractionParams(radius=8.0)
    target = TargetSpec(position=(20.0, -10.0), kappa=0.3)
    obstacles = (
        ObstacleSpec(center=(4.0, 4.0), radius=1.0, detection=12.0, sigma_o=2.0),
        ObstacleSpec(center=(-6.0, 2.0), radius=1.0, detection=9.0, sigma_o=3.0),
    )
    for _ in range(8):
        pos = rng.uniform(-5, 5, (4, 2))
        vel = rng.uniform(-2, 2, (4, 2))
        for i in range(4):
            want = interaction_acceleration(i, pos, vel, p).astype(float)
            want = want + target.kappa * (np.asarray(target.position) - pos[i])
            for o in obstacles:
                to_center = np.asarray(o.center) - pos[i]
                d = float(np.linalg.norm(to_center))
                if d <= o.detection:
                    want = want + rho_weight(d, o.detection, o.sigma_o) * to_center
            got = extended_acceleration(i, pos, vel, p, target, obstacles)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_add_environment_terms_matches_per_agent_bitwise():
    # All agents at once against extended_acceleration: 2-D and 3-D, one
    # agent on an obstacle center, one about a detection radius from another,
    # one exactly on a detection radius, agents inside two and three
    # detection ranges at once, kappa 0 and > 0.
    rng = np.random.default_rng(29)
    p = InteractionParams(radius=6.0)
    hits, multi = 0, set()
    for trial in range(40):
        m = 2 + trial % 2
        pos = rng.uniform(-10, 10, (8, m))
        vel = rng.uniform(-2, 2, (8, m))
        # Obstacle 1 sits within ~2 m of obstacle 0 (on integer coordinates,
        # so an offset of (3, 4) from it is exactly 5 m); obstacle 2 joins
        # them on even trials and is far away on odd ones.
        c0 = rng.uniform(-10, 10, m)
        centers = [c0, np.round(c0 + rng.uniform(-1, 1, m)),
                   c0 + (rng.uniform(-1, 1, m) if trial % 2 == 0 else 40.0)]
        obstacles = tuple(
            ObstacleSpec(center=tuple(c), radius=1.0,
                         detection=5.0 if k == 1 else float(rng.uniform(3.0, 9.0)),
                         sigma_o=float(rng.choice([1.5, 2.0, 3.0])))
            for k, c in enumerate(centers))
        pos[0] = obstacles[0].center
        pos[1] = obstacles[1].center
        pos[1, 0] += obstacles[1].detection
        pos[2] = c0 + rng.uniform(-0.5, 0.5, m)
        pos[3] = np.array(obstacles[1].center) + (3.0, 4.0, 0.0)[:m]
        assert np.linalg.norm(np.array(obstacles[1].center) - pos[3]) == obstacles[1].detection
        target = TargetSpec(position=tuple(rng.uniform(-20, 20, m)),
                            kappa=float(rng.choice([0.0, 0.4])))
        want = np.array([extended_acceleration(i, pos, vel, p, target, obstacles)
                         for i in range(8)])
        plain = np.array([interaction_acceleration(i, pos, vel, p) for i in range(8)])
        got = add_environment_terms(plain, pos, target, obstacles)
        assert got.tobytes() == want.tobytes(), trial
        detected = [len(detected_obstacles(x, obstacles)) for x in pos]
        hits += sum(detected)
        multi.update(d for d in detected if d > 1)
        assert obstacles[1] in detected_obstacles(pos[3], obstacles)
    assert hits >= 80 and multi == {2, 3}
