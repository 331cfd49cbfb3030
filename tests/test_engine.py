"""Unit tests for the time-stepping engine.

Covers config validation, seeded initialization, the integration step
(semi-implicit update, rate clamp, conditional speed cap), event
logging, energy integration, bitwise determinism across repeats and
worker counts, and byte-identity with a per-agent reference stepper.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from flocksim import engine, graph
from flocksim.cognition import (
    adaptive_delta,
    adaptive_eta,
    adaptive_threshold,
    energy_derivative,
)
from flocksim.core import (
    EPS_POS,
    PairNumericsError,
    all_neighborhoods,
    cucker_smale_acceleration,
    interaction_acceleration,
    rate_limit,
    saturate_velocity,
)
from flocksim.engine import Event, spawned_draws
from flocksim.environment import extended_acceleration
from flocksim.lab import list_presets, preset
from flocksim.metrics import sample_metrics
from strategies import fixed, states


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
    # Blocks of the wrong type are refused here, not met later inside run.
    for bad in (dict(n=5.7), dict(n=True), dict(duration=float("inf")),
                dict(dt=float("nan")), dict(adaptive="false"),
                dict(init_vel_range=(float("nan"), 1.0)),
                dict(params=5), dict(params=[{}] * 5), dict(params="abcde"),
                dict(cluttered=True, obstacles=(1,)),
                dict(cluttered=True, target=(1.0, 1.0)), dict(energy=5.0),
                dict(adaptive=True, energy=EnergyState(initial=5.0), adaptation=5),
                dict(cucker_smale=1)):
        with pytest.raises(ConfigError):
            SimConfig(**{"n": 5, "duration": 1.0, **bad})
    cfg = SimConfig(n=5.0, duration=1)
    assert type(cfg.n) is int and type(cfg.duration) is float


def test_config_mode_exclusivity():
    target = TargetSpec(position=(10.0, 10.0), kappa=0.5)
    energy = EnergyState(initial=80.0)
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
    # Bounds follow the one number rule: strings and bools are refused, not
    # coerced; NumPy numbers and ints are stored as Python floats.
    for bad in (("0", "5"), (True, 2.0), ((0.0, 1.0), (0.0, "5")), ((0.0, 1.0), (0.0,))):
        with pytest.raises(ConfigError, match="init_pos_range"):
            SimConfig(n=5, duration=1.0, init_pos_range=bad)
    cfg = SimConfig(n=5, duration=1.0, init_pos_range=(np.float32(0.5), 2))
    assert cfg.init_pos_range == ((0.5, 2.0), (0.5, 2.0))
    assert {type(x) for pair in cfg.init_pos_range for x in pair} == {float}


@pytest.mark.parametrize("m, value, message", [
    # Anything but one pair of two bounds or m such pairs is refused by shape:
    # ragged nesting, ...
    (2, ((0.0, 1.0), (0.0,)), "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, ([0.0, 1.0], [0.0, 1.0, 2.0]), "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, (0.0, (1.0, 2.0)), "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, ((0.0, 1.0), (0.0, [1.0])), "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    # ... and equal-length nesting of the wrong shape.
    (3, ((0.0, 1.0), (0.0, 1.0)), "init_pos_range: expected (lo, hi) or 3 per-axis pairs"),
    (2, ((0, 1, 2), (0, 1, 2)), "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, (((0, 1), (0, 1)), ((0, 1), (0, 1))),
     "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, ((), ()), "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, (((), ()), ((), ())), "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, "05", "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, 5.0, "init_pos_range: expected (lo, hi) or 2 per-axis pairs"),
    (2, (-1e308, 1e308), "init_pos_range: bounds and their width hi - lo must be finite"),
    (2, ((0.0, 1.0), (2.0, 1.0)), "init_pos_range: ranges must satisfy lo <= hi"),
])
def test_config_range_refusal_messages(m, value, message):
    with pytest.raises(ConfigError) as exc:
        SimConfig(n=5, m=m, duration=1.0, init_pos_range=value)
    assert str(exc.value) == message


def test_config_ranges_read_arrays_and_mixed_pairs():
    for value in (np.array([[0, 1], [5, 6]]), ((0, 1), np.array([5.0, 6.0])),
                  [np.float64(0.0), 1], np.array([0.0, 1.0])):
        got = SimConfig(n=5, duration=1.0, init_pos_range=value).init_pos_range
        assert got in (((0.0, 1.0), (5.0, 6.0)), ((0.0, 1.0), (0.0, 1.0)))
        assert {type(x) for pair in got for x in pair} == {float}


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
    other = dataclasses.replace(cfg, seed=9, dt=0.05)
    assert other.seed == 9 and other.dt == 0.05 and other.n == 4
    assert cfg.seed == 1  # original untouched
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, dt=-0.1)


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


def test_initialize_refuses_what_it_cannot_seed_or_hold():
    # Spawn keys past one uint32 word are refused before anything is allocated.
    with pytest.raises(ConfigError, match="cannot seed"):
        spawned_draws(0, 2**32 + 1, 4)
    with pytest.raises(ConfigError, match="cannot seed"):
        initialize(SimConfig(n=10**11, duration=1.0))


def test_run_refuses_an_unrecordable_run_before_seeding(monkeypatch):
    # run checks that the recording fits before initialize draws n-long
    # arrays, as validate does; np.empty refuses this size without allocating.
    def no_seeding(config, draws=None):
        raise AssertionError("initialize called")

    monkeypatch.setattr(engine, "initialize", no_seeding)
    with pytest.raises(ConfigError, match="cannot record"):
        run(SimConfig(n=2**31, duration=1e18))


def test_config_checks_a_shared_block_without_a_table(monkeypatch):
    # Neither a shared block nor per-agent blocks build the per-agent table;
    # the per-agent form is checked by its type and length.
    def no_table(params, n):
        raise AssertionError("table built")

    monkeypatch.setattr(engine, "agent_params", no_table)
    SimConfig(n=2_000_000, duration=0.1)
    cfg = SimConfig(n=2, duration=0.1, params=[InteractionParams()] * 2)
    assert cfg.params == (InteractionParams(),) * 2
    with pytest.raises(ConfigError, match="params: need 3"):
        SimConfig(n=3, duration=0.1, params=[InteractionParams()] * 2)


def test_initialize_fills_energies():
    cfg = SimConfig(n=4, duration=1.0,
                    energy=EnergyState(initial=80.0))
    w = initialize(cfg)
    np.testing.assert_array_equal(w.energies, np.full(4, 80.0))


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


@pytest.mark.parametrize("m", [2, 3])
def test_coincident_pair_events_come_from_edge_flags(m):
    # One event per unordered pair with a coincident edge, as (lower,
    # higher), ascending.  Wherever both radii are >= EPS_POS this is the
    # old scan over the distance matrix; a pair closer than EPS_POS that is
    # no edge (both radii below its distance) gets no impulse and no event.
    rng = np.random.default_rng(40 + m)
    n = 10
    radii = rng.uniform(2.0, 6.0, n)
    radii[[1, 4]] = EPS_POS / 4
    params = tuple(InteractionParams(radius=float(r), delta=float(rng.uniform(0.5, 2.0)))
                   for r in radii)
    w = initialize(SimConfig(n=n, m=m, duration=1.0, seed=m, params=params))
    w.positions = rng.uniform(0.0, 20.0, (n, m))
    w.positions[[2, 5, 7]] = w.positions[0]  # a coincident quadruple
    w.positions[8] = w.positions[3] + EPS_POS / 3
    w.positions[4] = w.positions[6]  # 4 -> 6 is an edge, 6 -> 4 is not
    w.positions[1] = w.positions[4]
    w.positions[1, 0] += EPS_POS / 2  # 1 and 4: closer than EPS_POS, no edge
    dist = np.linalg.norm(w.positions[:, None] - w.positions[None], axis=2)
    old_scan = [(int(a), int(b)) for a, b in zip(*np.nonzero(np.triu(dist < EPS_POS, 1)))]
    assert (1, 4) in old_scan and len(old_scan) == 10
    step(w)
    events = [e.agents for e in w.events if e.kind == "coincident_pair"]
    assert events == [pair for pair in old_scan if pair != (1, 4)]
    assert all(e.step == 1 and e.time == 0.0 for e in w.events)


def test_negative_energy_event_logged_once_per_agent():
    cfg = SimConfig(n=2, duration=2.0, seed=1,
                    energy=EnergyState(initial=0.001))
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

    # A force that overflows (alpha = 400) is reported for its agent, not
    # raised as the per-pair PairNumericsError.
    w = initialize(SimConfig(n=5, duration=1.0,
                             params=InteractionParams(alpha=400.0, delta=3.0)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SimulationNumericsError) as exc:
        step(w)
    assert exc.value.step_index == 1
    assert 0 <= exc.value.agent < 5

    # So is an overflowing consensus term (v_j - v_i = -inf for agent 1).
    w = initialize(SimConfig(n=3, duration=1.0, cucker_smale=CuckerSmaleParams()))
    w.velocities[:] = [[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0]]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SimulationNumericsError) as exc:
        step(w)
    assert (exc.value.step_index, exc.value.agent) == (1, 1)


def test_run_raises_the_error_of_its_failing_step(monkeypatch):
    # engine.run raises what stepping its world by hand raises: the same type,
    # message, step, every non-finite agent and cause, for a state failure
    # naming several agents and for a force failure.
    real = engine.integrate

    def integrate(positions, velocities, acc, params, dt):
        positions, velocities = real(positions, velocities, acc, params, dt)
        velocities[positions[:, 0] > 9.0] = np.nan
        return positions, velocities

    monkeypatch.setattr(engine, "integrate", integrate)
    errors = []
    for cfg in (SimConfig(n=10, duration=1.0, seed=2),
                SimConfig(n=5, duration=1.0, params=InteractionParams(alpha=400.0, delta=3.0))):
        world = initialize(cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationNumericsError) as want:
                for _ in range(cfg.n_steps):
                    step(world)
            with pytest.raises(SimulationNumericsError) as got:
                run(cfg)
        want, got = want.value, got.value
        assert (type(got), str(got), got.step_index, got.agents, type(got.__cause__)) == (
            type(want), str(want), want.step_index, want.agents, type(want.__cause__))
        errors.append(got)
    assert len(errors[0].agents) >= 2 and errors[0].__cause__ is None
    assert isinstance(errors[1].__cause__, PairNumericsError)


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


def test_adaptive_run_records_offsets_and_energy():
    cfg = SimConfig(
        n=5, duration=2.0, seed=0, adaptive=True,
        params=InteractionParams(delta=2.0, eta=15.0),
        energy=EnergyState(initial=80.0),
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
                    energy=EnergyState(initial=80.0))
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


# ---------------------------------------------------------------------------
# Per-agent reference stepper


def _reference_step(world, params, warned):
    """One step as the engine took it before the edge-list kernel: one call
    of the per-agent core, environment and cognition functions per agent.
    ``params`` is the reference's own list of per-agent blocks (world.params,
    the engine's table, is not read); returns the list for the next step.
    ``warned`` is the reference's own set of agents already warned of a
    negative energy; it is updated in place."""
    cfg = world.config
    n = cfg.n
    nbrs = all_neighborhoods(world.positions, [p.radius for p in params])
    if cfg.adaptive:
        a = cfg.adaptation
        adapted = []
        for i in range(n):
            thr = adaptive_threshold(world.energies, nbrs[i], a.e_th)
            e = float(world.energies[i])
            adapted.append(dataclasses.replace(params[i], delta=adaptive_delta(e, thr, a),
                                               eta=adaptive_eta(e, thr, a)))
        params = adapted
    for a in range(n):
        for b in range(a + 1, n):
            # Logged where an impulse applies: on a pair that is an edge in some direction.
            if (np.linalg.norm(world.positions[a] - world.positions[b]) < EPS_POS
                    and (b in nbrs[a].members or a in nbrs[b].members)):
                world.events.append(Event(
                    step=world.step_index + 1, time=world.time, kind="coincident_pair",
                    agents=(a, b), detail="separation impulse applied"))
    acc = np.empty((n, cfg.m))
    for i in range(n):
        if cfg.cucker_smale is not None:
            acc[i] = cucker_smale_acceleration(i, world.positions, world.velocities,
                                               cfg.cucker_smale)
        elif cfg.cluttered:
            acc[i] = extended_acceleration(i, world.positions, world.velocities, params[i],
                                           cfg.target, cfg.obstacles, nbrs=nbrs[i])
        else:
            acc[i] = interaction_acceleration(i, world.positions, world.velocities,
                                              params[i], nbrs=nbrs[i])
    for i in range(n):
        acc[i] = rate_limit(acc[i], params[i].v_max / params[i].t_vmax)
    world.velocities = world.velocities + acc * cfg.dt
    world.positions = world.positions + world.velocities * cfg.dt
    for i in range(n):
        if float(np.linalg.norm(world.velocities[i])) > params[i].v_max:
            world.velocities[i] = saturate_velocity(world.velocities[i], params[i].v_max)
    if world.energies is not None:
        e = cfg.energy
        for i in range(n):
            world.energies[i] += cfg.dt * energy_derivative(acc[i], e.c1, e.c2)
        for i in np.nonzero(world.energies < 0)[0]:
            if int(i) not in warned:
                warned.add(int(i))
                world.events.append(Event(
                    step=world.step_index + 1, time=world.time + cfg.dt,
                    kind="negative_energy", agents=(int(i),),
                    detail=f"energy {world.energies[i]:.3f}"))
    world.time += cfg.dt
    world.step_index += 1
    return params


def _reference_run(config):
    """Snapshots of a run stepped by _reference_step, with standalone metrics."""
    world = initialize(config)
    params, warned = config.params_list(), set()
    snaps = []
    for k in range(config.n_steps + 1):
        if k:
            params = _reference_step(world, params, warned)
        snaps.append((world.positions.copy(), world.velocities.copy(),
                      [(p.delta, p.eta) for p in params],
                      None if world.energies is None else world.energies.copy(),
                      sample_metrics(world.time, world.positions, world.velocities, params)))
    return snaps, world.events


def _assert_run_matches_reference(config):
    traj = run(config)
    snaps, events = _reference_run(config)
    assert traj.events == events
    for k, (pos, vel, offsets, energies, sample) in enumerate(snaps):
        assert traj.positions[k].tobytes() == pos.tobytes()
        assert traj.velocities[k].tobytes() == vel.tobytes()
        if config.adaptive:
            assert list(zip(traj.deltas[k], traj.etas[k])) == offsets
        if energies is not None:
            assert traj.energies[k].tobytes() == energies.tobytes()
        got = traj.metrics[k]
        for name in ("time", "h", "r_agg", "d_avg", "d_min"):
            assert np.array_equal(getattr(got, name), getattr(sample, name), equal_nan=True)
        for name in ("mean_edge_pos_err", "mean_edge_vel_err"):
            np.testing.assert_array_equal(getattr(got, name), getattr(sample, name))


@pytest.mark.parametrize("name", list_presets())
def test_run_reproduces_per_agent_reference_on_presets(name):
    cfg = preset(name).config
    _assert_run_matches_reference(
        dataclasses.replace(cfg, duration=min(cfg.duration, 3.0 if cfg.n > 20 else 8.0)))


def test_run_reproduces_per_agent_reference_cluttered_adaptive():
    # Cluttered and adaptive together, with energies crossing zero (events)
    # and agents passing through the obstacles' detection ranges.
    cluttered = preset("cluttered-fig6").config
    adaptive = preset("adaptive-fig9").config
    cfg = dataclasses.replace(
        cluttered, n=25, duration=12.0, seed=3, params=adaptive.params, adaptive=True,
        init_pos_range=(10.0, 30.0),
        energy=EnergyState(initial=4.0), adaptation=adaptive.adaptation)
    _assert_run_matches_reference(cfg)
    assert any(e.kind == "negative_energy" for e in run(cfg).events)


def test_run_reproduces_per_agent_reference_heterogeneous_adaptive():
    # Every column of the parameter table differs between agents: radii
    # (directed neighborhoods), alpha in {1.5, 2}, beta in {1, 2}, v_max and
    # t_vmax (rate limit and speed cap), and the starting delta/eta.
    rng = np.random.default_rng(5)
    params = tuple(InteractionParams(
        delta=float(rng.uniform(0.5, 2.0)), eta=float(rng.uniform(3.0, 15.0)),
        alpha=(1.5, 2.0)[i % 2], beta=(1.0, 2.0)[i // 2 % 2],
        radius=float(rng.uniform(3.0, 9.0)), v_max=float(rng.uniform(2.0, 6.0)),
        t_vmax=float(rng.uniform(0.5, 2.0))) for i in range(12))
    cfg = dataclasses.replace(preset("adaptive-fig9").config, n=12, duration=15.0, seed=3,
                              params=params, energy=EnergyState(initial=6.0))
    _assert_run_matches_reference(cfg)


def test_run_reproduces_per_agent_reference_at_benchmark_scale():
    # The large-flock benchmark's run (n=300, ~4000 edges) cut to 3 steps.
    _assert_run_matches_reference(SimConfig(
        n=300, m=2, dt=0.1, duration=0.3, seed=1, init_pos_range=(0.0, 75.0),
        init_vel_range=(-1.0, 1.0), params=InteractionParams(delta=1.0, eta=3.0, radius=10.0)))


@fixed(60)
@given(states(huge=False), st.data())
def test_step_alone_reproduces_per_agent_reference(state, data):
    # Five step(world) calls without a shared snapshot, on the guard-band
    # states of strategies.py (per-agent radii, i.e. directed neighborhoods,
    # delta, eta and exponents; 2-D and 3-D), with a coincident pair planted,
    # velocities tripled past the speed cap or not, and the consensus law at
    # gamma 0, 0.5, 1 and 2 or the offset law.
    n, m = state.positions.shape
    i, j = data.draw(st.permutations(range(n)))[:2]
    gamma = data.draw(st.sampled_from((None, 0.0, 0.5, 1.0, 2.0)))
    cfg = SimConfig(n=n, m=m, duration=1.0, params=tuple(state.params),
                    cucker_smale=None if gamma is None else CuckerSmaleParams(gamma=gamma))
    speed = data.draw(st.sampled_from((1.0, 3.0)))
    a, b = initialize(cfg), initialize(cfg)
    for w in (a, b):
        w.positions = state.positions.copy()
        w.positions[j] = w.positions[i]
        w.velocities = state.velocities * speed
    plist = cfg.params_list()
    for _ in range(5):
        step(a)
        plist = _reference_step(b, plist, set())
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.velocities.tobytes() == b.velocities.tobytes()
    assert a.events == b.events and a.events


def test_each_snapshot_computes_its_edge_terms_once(monkeypatch):
    # One full pass of graph._edge_terms per snapshot: the snapshot's
    # metrics and the next step read the same record, an adaptive step only
    # reweighs it for the adapted delta/eta, and the monitor and global_rhs
    # build theirs once per call.
    calls = []
    real = graph._edge_terms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graph, "_edge_terms", counted)
    for name in ("flocking-fig2a", "adaptive-fig9", "cluttered-fig6", "cucker-smale-baseline"):
        cfg = dataclasses.replace(preset(name).config, duration=1.0)
        calls.clear()
        run(cfg)
        assert len(calls) == cfg.n_steps + 1, name
    rng = np.random.default_rng(8)
    pos, vel = rng.uniform(0.0, 6.0, (9, 2)), rng.uniform(-2.0, 2.0, (9, 2))
    for oracle in (graph.lyapunov_monitor, graph.global_rhs):
        calls.clear()
        oracle(pos, vel, InteractionParams(radius=4.0))
        assert len(calls) == 1, oracle.__name__
