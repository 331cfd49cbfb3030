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

