"""Unit tests for the time-stepping engine.

Covers config validation, seeded initialization, the integration step
(semi-implicit update, rate clamp, conditional speed cap), event
logging, energy integration, and bitwise determinism across repeats
and worker counts.
"""

import dataclasses

import numpy as np
import pytest

from flocksim import (
    AdaptationParams,
    ConfigError,
    CuckerSmaleParams,
    EnergyState,
    InteractionParams,
    ObstacleSpec,
    SimConfig,
    SimulationNumericsError,
    TargetSpec,
    initialize,
    run,
    step,
)
from flocksim.engine import rerun_with


# ---------------------------------------------------------------------------
# Config validation


def test_config_basic_bounds():
    with pytest.raises(ConfigError):
        SimConfig(n=1, duration=1.0)
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, m=4)
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, dt=0.0)
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=0.05, dt=0.1)
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, workers=0)
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, seed=-1)
    # Bad values are refused, not coerced; integral floats are accepted.
    for bad in (dict(n=5.7), dict(n=True), dict(duration=float("inf")),
                dict(dt=float("nan")), dict(adaptive="false"),
                dict(init_vel_range=(float("nan"), 1.0))):
        with pytest.raises(ConfigError):
            SimConfig(**{"n": 5, "duration": 1.0, **bad})
    cfg = SimConfig(n=5.0, duration=1)
    assert type(cfg.n) is int and type(cfg.duration) is float


def test_config_mode_exclusivity():
    target = TargetSpec(position=(10.0, 10.0), kappa=0.5)
    energy = EnergyState(energy=80.0, initial=80.0)
    adaptation = AdaptationParams()
    cs = CuckerSmaleParams()
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, target=target)  # needs cluttered=True
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, cluttered=True)  # needs target/obstacles
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, adaptive=True, energy=energy)
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, adaptive=True, adaptation=adaptation)
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, adaptation=adaptation)  # not adaptive
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, cucker_smale=cs, cluttered=True,
                  target=target)
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, cucker_smale=cs, adaptive=True,
                  energy=energy, adaptation=adaptation)


def test_config_dimension_mismatch():
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, m=2, cluttered=True,
                  target=TargetSpec(position=(1.0, 2.0, 3.0), kappa=0.5))
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, m=3, cluttered=True,
                  obstacles=(ObstacleSpec(center=(1.0, 2.0), radius=1.0,
                                          detection=5.0),))


def test_config_range_validation():
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, init_pos_range=(5.0, 1.0))
    with pytest.raises(ConfigError):
        SimConfig(n=5, duration=1.0, init_pos_range=((0.0, 1.0),))  # m=2 axes
    cfg = SimConfig(n=5, duration=1.0, init_pos_range=((0.0, 1.0), (5.0, 6.0)))
    assert cfg.init_pos_range == ((0.0, 1.0), (5.0, 6.0))


def test_config_per_agent_params_length():
    with pytest.raises(ConfigError):
        SimConfig(n=3, duration=1.0, params=(InteractionParams(),) * 2)
    cfg = SimConfig(n=3, duration=1.0, params=(InteractionParams(),) * 3)
    assert len(cfg.params_list()) == 3


def test_n_steps_flooring():
    assert SimConfig(n=2, duration=30.0, dt=0.1).n_steps == 300
    assert SimConfig(n=2, duration=0.3, dt=0.1).n_steps == 3
    assert SimConfig(n=2, duration=0.25, dt=0.1).n_steps == 2
    assert SimConfig(n=2, duration=1.0, dt=0.25).n_steps == 4


def test_rerun_with_overrides():
    cfg = SimConfig(n=4, duration=2.0, seed=1)
    other = rerun_with(cfg, seed=9, dt=0.05)
    assert other.seed == 9 and other.dt == 0.05 and other.n == 4
    assert cfg.seed == 1  # original untouched
    with pytest.raises(ConfigError):
        rerun_with(cfg, dt=-0.1)


# ---------------------------------------------------------------------------
# Initialization


def test_initialize_is_deterministic_and_seed_sensitive():
    cfg = SimConfig(n=8, duration=1.0, seed=12)
    w1 = initialize(cfg)
    w2 = initialize(cfg)
    np.testing.assert_array_equal(w1.positions, w2.positions)
    np.testing.assert_array_equal(w1.velocities, w2.velocities)
    w3 = initialize(dataclasses.replace(cfg, seed=13))
    assert not np.array_equal(w1.positions, w3.positions)


def test_initialize_respects_ranges():
    cfg = SimConfig(n=50, duration=1.0, seed=3,
                    init_pos_range=((0.0, 1.0), (5.0, 6.0)),
                    init_vel_range=(-0.2, 0.2))
    w = initialize(cfg)
    assert np.all(w.positions[:, 0] >= 0.0) and np.all(w.positions[:, 0] <= 1.0)
    assert np.all(w.positions[:, 1] >= 5.0) and np.all(w.positions[:, 1] <= 6.0)
    assert np.all(np.abs(w.velocities) <= 0.2)
    assert w.energies is None
    assert w.time == 0.0 and w.step_index == 0


def test_initialize_fills_energies():
    cfg = SimConfig(n=4, duration=1.0,
                    energy=EnergyState(energy=80.0, initial=80.0))
    w = initialize(cfg)
    np.testing.assert_array_equal(w.energies, np.full(4, 80.0))


def test_agent_state_accessor_copies():
    w = initialize(SimConfig(n=3, duration=1.0))
    state = w.agent_state(1)
    state.position[0] = 999.0
    assert w.positions[1, 0] != 999.0


# ---------------------------------------------------------------------------
# Stepping semantics


def test_isolated_agents_drift_exactly():
    # No neighbors, no force: velocities constant bit for bit and
    # positions accumulate v*dt exactly as the integrator does.
    cfg = SimConfig(n=2, duration=3.0, dt=0.1,
                    params=InteractionParams(radius=0.5))
    w = initialize(cfg)
    w.positions = np.array([[0.0, 0.0], [100.0, 0.0]])
    w.velocities = np.array([[0.3, -0.2], [-0.1, 0.4]])
    v0 = w.velocities.copy()
    expect = w.positions.copy()
    for _ in range(30):
        step(w)
        expect = expect + v0 * cfg.dt
    np.testing.assert_array_equal(w.velocities, v0)
    np.testing.assert_array_equal(w.positions, expect)
    assert w.step_index == 30
    assert w.time == pytest.approx(3.0)


def test_rate_clamp_bounds_velocity_change():
    cfg = SimConfig(n=10, duration=2.0, seed=4,
                    params=InteractionParams(v_max=5.0, t_vmax=1.0))
    traj = run(cfg)
    s_dt = 5.0 * cfg.dt
    dv = np.linalg.norm(np.diff(traj.velocities, axis=0), axis=2)
    # Below the speed cap the per-step velocity change is at most s*dt.
    speeds = np.linalg.norm(traj.velocities, axis=2)
    below = speeds[1:] < 5.0 - 1e-9
    assert np.all(dv[below] <= s_dt + 1e-9)


def test_speed_cap_engages_only_above_vmax():
    # Small ceiling: every post-step speed must sit at or below v_max.
    cfg = SimConfig(n=5, duration=2.0, seed=2,
                    params=InteractionParams(v_max=0.5, t_vmax=1.0))
    traj = run(cfg)
    speeds = np.linalg.norm(traj.velocities[1:], axis=2)
    assert speeds.max() <= 0.5 + 1e-12


def test_speed_cap_reached_under_strong_pull():
    # A distant target accelerates agents to the ceiling; speeds must
    # approach v_max without ever crossing it.
    cfg = SimConfig(n=2, duration=10.0, seed=0, cluttered=True,
                    target=TargetSpec(position=(500.0, 0.0), kappa=1.0))
    traj = run(cfg)
    speeds = np.linalg.norm(traj.velocities[1:], axis=2)
    assert speeds.max() <= 5.0 + 1e-12
    assert speeds.max() > 4.0


def test_coincident_pair_event_and_separation():
    cfg = SimConfig(n=2, duration=1.0, seed=0)
    w = initialize(cfg)
    w.positions = np.array([[5.0, 5.0], [5.0, 5.0]])
    w.velocities = np.array([[0.3, 0.0], [0.3, 0.0]])
    step(w)
    kinds = [(e.kind, e.agents) for e in w.events]
    assert ("coincident_pair", (0, 1)) in kinds
    assert np.linalg.norm(w.positions[0] - w.positions[1]) > 0
    # Impulses are equal and opposite along the first axis.
    dv = w.velocities - 0.3 * np.array([[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(dv[0], -dv[1], atol=1e-12)


def test_negative_energy_event_logged_once_per_agent():
    cfg = SimConfig(n=2, duration=2.0, seed=1,
                    energy=EnergyState(energy=0.001, initial=0.001))
    traj = run(cfg)
    neg = [e for e in traj.events if e.kind == "negative_energy"]
    assert sorted(e.agents[0] for e in neg) == [0, 1]
    assert len(neg) == 2  # once per agent, not per step


def test_non_finite_state_raises():
    w = initialize(SimConfig(n=3, duration=1.0))
    w.velocities[1, 0] = np.nan
    with pytest.raises(SimulationNumericsError) as exc:
        step(w)
    assert exc.value.step_index == 1
    assert exc.value.agent == 1


# ---------------------------------------------------------------------------
# Recorded trajectories


def test_trajectory_shapes_and_times():
    cfg = SimConfig(n=6, duration=2.0, dt=0.1, seed=7)
    traj = run(cfg)
    assert traj.n_snapshots == 21
    assert traj.positions.shape == (21, 6, 2)
    assert traj.velocities.shape == (21, 6, 2)
    np.testing.assert_allclose(traj.times, np.arange(21) * 0.1, atol=1e-12)
    assert len(traj.metrics) == 21
    assert traj.deltas is None and traj.etas is None and traj.energies is None
    states = traj.agent_states(0)
    assert len(states) == 6
    np.testing.assert_array_equal(states[2].position, traj.positions[0, 2])


def test_adaptive_run_records_offsets_and_energy():
    cfg = SimConfig(
        n=5, duration=2.0, seed=0, adaptive=True,
        params=InteractionParams(delta=2.0, eta=15.0),
        energy=EnergyState(energy=80.0, initial=80.0),
        adaptation=AdaptationParams(delta_min=0.5, delta_max=2.0,
                                    eta_min=3.0, eta_max=15.0),
    )
    traj = run(cfg)
    assert traj.deltas.shape == (21, 5)
    assert traj.etas.shape == (21, 5)
    assert traj.energies.shape == (21, 5)
    # Snapshot 0 carries the configured initial offsets.
    np.testing.assert_array_equal(traj.deltas[0], np.full(5, 2.0))
    np.testing.assert_array_equal(traj.etas[0], np.full(5, 15.0))
    np.testing.assert_array_equal(traj.energies[0], np.full(5, 80.0))
    assert np.all(traj.deltas >= 0.5) and np.all(traj.deltas <= 2.0)
    assert np.all(traj.etas >= 3.0) and np.all(traj.etas <= 15.0)
    # Energy decreases strictly (metabolic drain is always on).
    assert np.all(np.diff(traj.energies, axis=0) < 0)


def test_energy_tracked_without_adaptation():
    cfg = SimConfig(n=4, duration=1.0, seed=3,
                    energy=EnergyState(energy=80.0, initial=80.0))
    traj = run(cfg)
    assert traj.energies is not None
    assert traj.deltas is None  # offsets stay fixed
    assert np.all(np.diff(traj.energies, axis=0) < 0)


def test_cucker_smale_mode_runs():
    cfg = SimConfig(n=4, duration=2.0, seed=5, cucker_smale=CuckerSmaleParams())
    traj = run(cfg)
    assert np.isfinite(traj.positions).all()
    # Consensus coupling shrinks velocity spread monotonically in norm.
    spread0 = np.ptp(traj.velocities[0], axis=0).max()
    spread1 = np.ptp(traj.velocities[-1], axis=0).max()
    assert spread1 < spread0


def test_cluttered_zero_gain_target_equals_base_mode():
    base = SimConfig(n=6, duration=5.0, seed=4)
    clut = dataclasses.replace(
        base, cluttered=True, target=TargetSpec(position=(50.0, 50.0), kappa=0.0))
    ta, tb = run(base), run(clut)
    np.testing.assert_array_equal(ta.positions, tb.positions)
    np.testing.assert_array_equal(ta.velocities, tb.velocities)


# ---------------------------------------------------------------------------
# Determinism


def test_repeat_runs_are_bitwise_identical():
    cfg = SimConfig(n=12, duration=3.0, seed=21)
    t1, t2 = run(cfg), run(cfg)
    np.testing.assert_array_equal(t1.positions, t2.positions)
    np.testing.assert_array_equal(t1.velocities, t2.velocities)


def test_worker_count_does_not_change_results():
    base = SimConfig(n=20, duration=3.0, seed=8)
    serial = run(base)
    for workers in (2, 4):
        parallel = run(dataclasses.replace(base, workers=workers))
        np.testing.assert_array_equal(serial.positions, parallel.positions)
        np.testing.assert_array_equal(serial.velocities, parallel.velocities)


def test_time_step_refinement_is_consistent():
    # Halving dt must not change the settled ordering noticeably.
    for seed in (3, 7):
        cfg = SimConfig(n=8, duration=10.0, seed=seed,
                        params=InteractionParams(eta=3.0))
        h_coarse = run(cfg).metrics[-1].h
        h_fine = run(dataclasses.replace(cfg, dt=0.05)).metrics[-1].h
        assert abs(h_coarse - h_fine) < 0.05
