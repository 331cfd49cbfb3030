"""Unit tests for presets, sweeps, config serialization, and CSV export."""

import csv
import dataclasses
import io
import json
import math
import os
from itertools import product

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
    SweepRow,
    SweepSpec,
    TargetSpec,
    export_all,
    list_presets,
    load_config,
    preset,
    run,
    save_config,
    sweep,
)
from flocksim import engine, graph, lab
from flocksim.core import PairNumericsError
from flocksim.engine import SimulationNumericsError
from flocksim.lab import (
    config_from_dict,
    config_to_dict,
    init_upper_for,
    load_sweep_spec,
    sweep_spec_from_dict,
    write_metrics_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from flocksim.metrics import MetricSample
from strategies import cell_pairs, per_cell_sweep

EXPECTED_PRESETS = [
    "adaptive-fig9",
    "cluttered-fig6",
    "cucker-smale-baseline",
    "flocking-fig2a",
    "phase-fig5",
    "spatial-fig7",
    "swarming-fig2c",
    "vortexing-fig2b",
]


# ---------------------------------------------------------------------------
# Presets


def test_preset_names():
    assert list_presets() == EXPECTED_PRESETS


def test_unknown_preset_lists_alternatives():
    with pytest.raises(ConfigError) as exc:
        preset("no-such-preset")
    for name in EXPECTED_PRESETS:
        assert name in str(exc.value)


def test_flocking_preset_parameters():
    cfg = preset("flocking-fig2a").config
    assert cfg.n == 15 and cfg.duration == 30.0 and cfg.dt == 0.1
    p = cfg.params
    assert (p.delta, p.eta, p.alpha, p.beta) == (1.0, 3.0, 2.0, 1.0)
    assert (p.radius, p.v_max, p.t_vmax) == (10.0, 5.0, 1.0)
    assert cfg.init_pos_range == ((0.0, 10.0), (0.0, 10.0))
    assert cfg.init_vel_range == ((-1.0, 1.0), (-1.0, 1.0))


def test_regime_preset_offsets():
    assert preset("vortexing-fig2b").config.n == 5
    assert preset("vortexing-fig2b").config.params.eta == 6.0
    assert preset("vortexing-fig2b").config.seed == 2
    assert preset("swarming-fig2c").config.n == 15
    assert preset("swarming-fig2c").config.params.eta == 12.0


def test_cluttered_preset_parameters():
    cfg = preset("cluttered-fig6").config
    assert cfg.cluttered and cfg.duration == 40.0 and cfg.n == 10
    assert cfg.target.position == (90.0, 90.0)
    assert cfg.target.kappa == 0.5
    assert cfg.params.eta == 0.5
    centers = [o.center for o in cfg.obstacles]
    assert centers == [(25.0, 30.0), (50.0, 40.0), (90.0, 80.0)]
    for o in cfg.obstacles:
        assert o.radius == 5.0 and o.detection == 15.0 and o.sigma_o == 3.0


def test_adaptive_preset_parameters():
    cfg = preset("adaptive-fig9").config
    assert cfg.adaptive and cfg.n == 20 and cfg.duration == 60.0
    assert cfg.params.delta == 2.0 and cfg.params.eta == 15.0
    assert cfg.energy.initial == 80.0
    assert cfg.energy.c1 == 0.15 and cfg.energy.c2 == 0.015
    a = cfg.adaptation
    assert (a.delta_min, a.delta_max) == (0.5, 2.0)
    assert (a.eta_min, a.eta_max) == (3.0, 15.0)
    assert a.k_delta == 0.5 and a.k_eta == 0.5 and a.e_th == 40.0


def test_baseline_preset_parameters():
    cfg = preset("cucker-smale-baseline").config
    cs = cfg.cucker_smale
    assert cfg.n == 10 and cfg.duration == 30.0
    assert (cs.k_gain, cs.sigma_cs, cs.gamma) == (1.0, 1.0, 0.5)


def test_sweep_presets_carry_grids():
    phase = preset("phase-fig5")
    assert phase.sweep is not None
    assert phase.sweep.etas == tuple(float(e) for e in range(34))
    assert phase.sweep.ns == (2, 3, 5, 10, 50, 100)
    spatial = preset("spatial-fig7")
    assert spatial.sweep.etas == (3.0, 21.0)
    assert spatial.sweep.deltas == (0.5, 1.0, 1.5, 2.0)
    assert spatial.sweep.has_delta_axis
    assert spatial.config.init_pos_range == ((0.0, 30.0), (0.0, 30.0))


def test_init_upper_for_extended_populations():
    assert init_upper_for(50) == 20.0
    assert init_upper_for(100) == 30.0
    assert init_upper_for(200) == 50.0
    assert init_upper_for(300) == 75.0
    assert init_upper_for(15) == 10.0


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(etas=(), ns=(5,))
    with pytest.raises(ConfigError):
        SweepSpec(etas=(3.0,), ns=())
    with pytest.raises(ConfigError):
        SweepSpec(etas=(3.0,), ns=(5,), seeds=0)
    with pytest.raises(ConfigError):
        SweepSpec(etas=(3.0,), ns=(5,), duration=0.05, dt=0.1)
    for bad in (dict(etas=(math.nan,)), dict(ns=(5.7,)), dict(seeds=1.5),
                dict(duration=math.inf), dict(deltas=(1.0, -1.0)), dict(etas=(3.0, -0.1)),
                dict(ns=(1, 5)), dict(ns=(0,)), dict(breakdown_radius=-5.0),
                dict(breakdown_radius=0.0)):
        with pytest.raises(ConfigError):
            SweepSpec(**{"etas": (3.0,), "ns": (5,), **bad})
    assert not SweepSpec(etas=(3.0,), ns=(5,)).has_delta_axis
    assert SweepSpec(etas=(3.0,), ns=(5,), deltas=(0.5, 1.0)).has_delta_axis


def test_sweep_refuses_a_grid_it_cannot_hold(monkeypatch):
    # Refused by size arithmetic before any cell exists: building the grid
    # fails the test at once instead of filling memory.
    def no_grid(*axes, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(lab, "product", no_grid)
    for spec in (SweepSpec(etas=(3.0,), ns=(2,), seeds=10**12, duration=0.2),
                 SweepSpec(etas=(3.0,), ns=(10**11,), duration=0.2)):
        with pytest.raises(ConfigError, match="cannot hold a sweep"):
            sweep(spec)


def test_sweep_memory_bound_is_exact(monkeypatch):
    # The bound counts 80 bytes per cell and 24 per pair i < j within it: a
    # machine of exactly that many bytes runs the grid, one byte less refuses
    # it before the grid is built.
    spec = SweepSpec(etas=(3.0, 5.0), ns=(2, 4), seeds=2, duration=0.2)
    need = 2 * 2 * ((80 + 24 * 1) + (80 + 24 * 6))

    def machine(have):
        sizes = {"SC_PHYS_PAGES": have, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)

    machine(need)
    rows, failures = sweep(spec)
    assert len(rows) == 8 and failures == []

    def no_grid(*axes, **kwargs):
        raise AssertionError("grid built")

    machine(need - 1)
    monkeypatch.setattr(lab, "product", no_grid)
    with pytest.raises(ConfigError) as exc:
        sweep(spec)
    assert str(exc.value) == (f"cannot hold a sweep of 8 cells: it needs at least {need} "
                              f"bytes, the machine has {need - 1}")


def test_sweep_runs_grid_in_order():
    spec = SweepSpec(etas=(3.0, 13.0), ns=(2, 3), seeds=2, duration=1.0)
    rows, failures = sweep(spec)
    assert failures == []
    assert len(rows) == 8
    key = [(r.eta, r.n, r.seed) for r in rows]
    assert key == [
        (3.0, 2, 0), (3.0, 2, 1), (3.0, 3, 0), (3.0, 3, 1),
        (13.0, 2, 0), (13.0, 2, 1), (13.0, 3, 0), (13.0, 3, 1),
    ]
    for r in rows:
        assert r.delta == 1.0
        assert r.d_min_overall > 0
        assert not r.aggregation_lost


def test_sweep_delta_axis_rows():
    spec = SweepSpec(etas=(3.0,), ns=(2,), deltas=(0.5, 1.5), duration=1.0)
    rows, _ = sweep(spec)
    assert [r.delta for r in rows] == [0.5, 1.5]

    # A cell whose forces overflow is a recorded failure; the others run.
    spec = SweepSpec(etas=(3.0,), ns=(2,), deltas=(1.0, 1e160), duration=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rows, failures = sweep(spec)
    assert [r.delta for r in rows] == [1.0]
    assert len(failures) == 1 and failures[0].startswith("eta=3.0 n=2 delta=1e+160")


def _small_sweep_spec(seed: int, duration: float) -> SweepSpec:
    """One seed-drawn eta per eighth of [0, 33] across n in {2, 3, 5, 10}."""
    edges = np.linspace(0.0, 33.0, 9)
    etas = np.random.default_rng(seed).uniform(edges[:-1], edges[1:])
    return SweepSpec(etas=tuple(etas.tolist()), ns=(2, 3, 5, 10), duration=duration)


_LOCKSTEP_SPECS = {
    "mixed-n-two-seeds": SweepSpec(etas=(0.0, 3.0, 13.0, 30.0), ns=(2, 3, 10, 50),
                                   seeds=2, duration=2.0),
    # Overflowing cells (delta = 1e160) at several stack offsets among healthy ones.
    "delta-axis-overflow": SweepSpec(etas=(3.0, 21.0), ns=(2, 5, 10),
                                     deltas=(1.0, 1e160, 1.5), seeds=2, duration=2.0),
    "spatial-fig7-short": dataclasses.replace(preset("spatial-fig7").sweep, duration=2.0),
    "small-sweep-seed-1": _small_sweep_spec(1, 3.0),
    # Shared starts: every (n, seed) serves several eta and delta cells (n = 5
    # twice), and the delta = 1e160 cells drop out of the stack at step 1.
    "shared-starts-overflow": SweepSpec(etas=(0.0, 7.0, 21.0), ns=(2, 5, 5, 10),
                                        deltas=(0.5, 1e160, 2.0), seeds=3, duration=2.0),
    # Four seeds, each drawn once at n = 10 and shared by its smaller and
    # repeated n, listed largest first.
    "seeds-repeated-n": SweepSpec(etas=(2.0, 9.0, 25.0), ns=(10, 3, 10, 2, 3),
                                  seeds=4, duration=1.5),
}


@pytest.mark.parametrize("spec", list(_LOCKSTEP_SPECS.values()), ids=list(_LOCKSTEP_SPECS))
def test_lockstep_sweep_matches_per_cell_runs(spec):
    # Named grids beside test_properties.py's drawn ones: 50 and 100 agents,
    # the benchmark's grid, and overflowing cells that must all fail.
    with np.errstate(over="ignore", invalid="ignore"):
        rows, failures = sweep(spec)
        ref_rows, ref_failures = per_cell_sweep(spec)
    assert repr(rows) == repr(ref_rows)
    assert failures == ref_failures
    if spec.has_delta_axis and 1e160 in spec.deltas:
        assert len(failures) == len(spec.etas) * len(spec.ns) * spec.seeds and rows


def test_lockstep_sweep_drops_cells_with_non_finite_state(monkeypatch):
    # The step's post-force stage turns rows non-finite by their own values
    # alone, so each cell fails where its own engine.run fails: at the first
    # such agent after integration, not in the forces.
    real = engine.integrate

    def integrate(positions, velocities, acc, params, dt):
        positions, velocities = real(positions, velocities, acc, params, dt)
        velocities[(positions[:, 0] > 9.5) & (positions[:, 1] < 2.0)] = np.nan
        return positions, velocities

    monkeypatch.setattr(engine, "integrate", integrate)
    spec = SweepSpec(etas=(3.0, 21.0), ns=(2, 3, 5, 10), seeds=3, duration=2.0)
    rows, failures = sweep(spec)
    ref_rows, ref_failures = per_cell_sweep(spec)
    assert repr(rows) == repr(ref_rows)
    assert failures == ref_failures
    assert rows and failures
    assert any(not f.endswith("for agent 0") for f in failures)


def test_sweep_initializes_each_start_once(monkeypatch):
    # A cell's start depends on its n and seed only, not on eta or delta:
    # one engine.initialize per distinct (n, seed), all fed by one raw draw
    # per seed at the largest n.
    calls, draws = [], []
    real, real_draws = engine.initialize, engine.spawned_draws

    def counted(config, raw):
        calls.append((config.n, config.seed))
        return real(config, raw)

    def counted_draws(seed, n, k):
        draws.append((seed, n, k))
        return real_draws(seed, n, k)

    monkeypatch.setattr(lab, "initialize", counted)
    monkeypatch.setattr(lab, "spawned_draws", counted_draws)
    # Every (n, seed) serves several eta and delta cells (n = 5 twice), and
    # the delta = 1e160 cells drop out of the stack at step 1.
    spec = SweepSpec(etas=(0.0, 7.0, 21.0), ns=(2, 5, 5, 10), deltas=(0.5, 1e160, 2.0), seeds=3,
                     duration=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rows, failures = sweep(spec)
    assert sorted(calls) == sorted(set(product(spec.ns, range(spec.seeds))))
    assert draws == [(seed, 10, 4) for seed in range(spec.seeds)]
    assert len(rows) + len(failures) == 3 * 4 * 3 * 3


def test_cell_stack_pairs_follow_drops():
    # The pairs of the stack's segments (one per cell) and each cell's first
    # pair follow the cells that leave the stack, down to an empty stack.
    spec = SweepSpec(etas=(1.0, 2.0), ns=(3, 2, 4), seeds=2, duration=1.0)
    cells = list(product(spec.etas, spec.ns, spec.deltas, range(spec.seeds)))
    stack = lab._CellStack(cells, spec)
    failed = {}
    while True:
        sizes = stack.sizes.tolist()
        pairs, want = graph._upper_pairs(tuple(sizes)), cell_pairs(sizes)
        assert pairs.shape == want.shape and pairs.tobytes() == want.tobytes()
        counts = [n * (n - 1) // 2 for n in sizes]
        assert stack.segments.tolist() == np.cumsum([0] + counts)[:-1].tolist()
        assert stack.world.positions.shape[0] == sum(sizes) == stack.world.params.delta.shape[0]
        if not sizes:
            break
        # Fail the first agent of every other stacked cell.
        stack.drop(SimulationNumericsError(1, *stack.starts[::2].tolist()), failed)
    assert sorted(failed) == list(range(len(cells)))


def test_sweep_steps_only_through_engine_step(monkeypatch):
    # lab.sweep has no step path of its own: a healthy spec makes one
    # engine.step call per step, and each cell whose forces overflow adds
    # one, the same step retried without that cell.
    calls = []
    real = engine.step

    def counted(world, snapshot=None):
        calls.append(world.config.n)
        return real(world, snapshot)

    for module in (engine, lab):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
    healthy = SweepSpec(etas=(3.0, 21.0), ns=(2, 5), seeds=2, duration=1.0)
    n_steps = SimConfig(n=2, duration=healthy.duration, dt=healthy.dt).n_steps
    sweep(healthy)
    assert len(calls) == n_steps and set(calls) == {2 * (2 + 5) * 2}

    calls.clear()
    spec = SweepSpec(etas=(3.0, 21.0), ns=(2, 5, 10), deltas=(1.0, 1e160, 1.5), seeds=2,
                     duration=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rows, failures = sweep(spec)
        sweep_calls = len(calls)
        for eta, n, delta, seed in product(spec.etas, spec.ns, spec.deltas, range(spec.seeds)):
            if delta == 1e160:  # its own run fails in the forces
                with pytest.raises(SimulationNumericsError) as exc:
                    run(SimConfig(n=n, duration=spec.duration, dt=spec.dt, seed=seed,
                                  init_pos_range=(0.0, init_upper_for(n)),
                                  params=InteractionParams(delta=delta, eta=eta)))
                assert isinstance(exc.value.__cause__, PairNumericsError)
    assert rows and len(failures) == 12
    assert sweep_calls == SimConfig(n=2, duration=spec.duration).n_steps + len(failures)


# ---------------------------------------------------------------------------
# Config serialization


@pytest.mark.parametrize("name", EXPECTED_PRESETS)
def test_config_dict_round_trip(name):
    cfg = preset(name).config
    doc = config_to_dict(cfg)
    json.dumps(doc)  # must be JSON-serializable as-is
    assert config_from_dict(doc) == cfg


def test_per_agent_params_round_trip():
    cfg = SimConfig(
        n=2, duration=1.0,
        params=(InteractionParams(delta=0.5), InteractionParams(delta=1.5)),
    )
    doc = config_to_dict(cfg)
    assert isinstance(doc["params"], list) and len(doc["params"]) == 2
    assert config_from_dict(doc) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = preset("cluttered-fig6").config
    path = tmp_path / "scenario.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_numpy_scalar_params_export_and_round_trip(tmp_path):
    # The block stores NumPy scalars as Python floats, so the exported
    # config.json is what load_config reads back.
    cfg = SimConfig(n=3, duration=0.3, params=InteractionParams(
        delta=np.float32(0.5), eta=np.float64(3.0), radius=np.int64(10)))
    paths = export_all(run(cfg), tmp_path)
    assert load_config(paths["config"]) == cfg


def test_config_unknown_keys_rejected():
    doc = config_to_dict(preset("flocking-fig2a").config)
    doc["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(doc)

    doc = config_to_dict(preset("flocking-fig2a").config)
    doc["params"]["oops"] = 2
    with pytest.raises(ConfigError, match="oops"):
        config_from_dict(doc)

    doc = config_to_dict(preset("cluttered-fig6").config)
    doc["target"]["speed"] = 3
    with pytest.raises(ConfigError, match="speed"):
        config_from_dict(doc)


def test_config_invalid_values_become_config_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"n": 1, "duration": 1.0})
    with pytest.raises(ConfigError):
        config_from_dict({"n": 5, "duration": 1.0,
                          "params": {"delta": -1.0}})


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def _differs_from_defaults(block) -> list[str]:
    """Fields of a config block left at their default value."""
    return [f.name for f in dataclasses.fields(block)
            if f.default is not dataclasses.MISSING and getattr(block, f.name) == f.default]


def test_every_field_of_every_block_round_trips():
    per_agent = tuple(InteractionParams(delta=0.5 + k, eta=2.0 + 2 * k, alpha=1.5, beta=1.25,
                                        radius=12.0 + k, v_max=4.0 + 2 * k, t_vmax=0.75)
                      for k in range(3))
    base = dict(n=3, m=3, duration=1.0, dt=0.05, seed=11, workers=2,
                init_pos_range=((0.0, 6.0), (1.0, 7.0), (-2.0, 4.0)),
                init_vel_range=(-0.5, 0.5), params=per_agent)
    navigating = SimConfig(
        **base, cluttered=True, adaptive=True,
        target=TargetSpec(position=(20.0, 20.0, 5.0), kappa=0.25),
        obstacles=(ObstacleSpec(center=(9.0, 9.0, 1.0), radius=1.0, detection=4.0, sigma_o=2.0),
                   ObstacleSpec(center=(14.0, 12.0, 3.0), radius=1.5, detection=5.0,
                                sigma_o=2.5)),
        energy=EnergyState(initial=30.0, c1=0.2, c2=0.02),
        adaptation=AdaptationParams(delta_min=0.4, delta_max=1.8, eta_min=2.0, eta_max=12.0,
                                    k_delta=0.6, k_eta=0.7, e_th=25.0))
    consensus = SimConfig(**base, cucker_smale=CuckerSmaleParams(k_gain=2.0, sigma_cs=0.5,
                                                                 gamma=0.75))
    blocks = [navigating, consensus, consensus.cucker_smale, *per_agent, navigating.target,
              *navigating.obstacles, navigating.energy, navigating.adaptation]
    assert [_differs_from_defaults(b) for b in blocks[:2]] == [["cucker_smale"], [
        "cluttered", "adaptive", "target", "obstacles", "energy", "adaptation"]]
    assert all(_differs_from_defaults(b) == [] for b in blocks[2:])
    for cfg in (navigating, consensus):
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg
        a, b = run(cfg), run(again)
        for name in ("times", "positions", "velocities", "deltas", "etas", "energies"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None and y is None) or x.tobytes() == y.tobytes(), name
        assert repr(a.metrics) == repr(b.metrics) and a.events == b.events
    assert run(navigating).energies[0].tolist() == [30.0] * 3


def test_config_errors_name_their_block():
    doc = config_to_dict(preset("cluttered-fig6").config)
    doc["params"] = [{"delta": 1.0}, {"delta": -1.0}] + [{}] * 8
    with pytest.raises(ConfigError, match=r"^params\[1\]: delta and eta"):
        config_from_dict(doc)
    doc = config_to_dict(preset("cluttered-fig6").config)
    doc["obstacles"][0]["radius"] = 0.0
    with pytest.raises(ConfigError, match=r"^obstacles\[0\]: "):
        config_from_dict(doc)
    doc["obstacles"][0] = 5
    with pytest.raises(ConfigError, match=r"^obstacles\[0\]: expected a mapping"):
        config_from_dict(doc)
    doc = config_to_dict(preset("cluttered-fig6").config)
    doc["target"]["kappa"] = -1.0
    with pytest.raises(ConfigError, match=r"^target: kappa"):
        config_from_dict(doc)
    doc = config_to_dict(preset("adaptive-fig9").config)
    doc["energy"]["energy"] = 30.0  # a run starts at initial; there is no other energy
    with pytest.raises(ConfigError, match=r"^energy: unknown keys \['energy'\]"):
        config_from_dict(doc)


def test_sweep_spec_round_trip(tmp_path):
    doc = {"etas": [3.0, 13.0], "ns": [5], "seeds": 2, "duration": 10.0}
    spec = sweep_spec_from_dict(doc)
    assert spec.etas == (3.0, 13.0) and spec.seeds == 2
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_sweep_spec(path) == spec
    with pytest.raises(ConfigError):
        sweep_spec_from_dict({"etas": [3.0], "ns": [5], "extra": 1})


# ---------------------------------------------------------------------------
# CSV export


def test_trajectory_csv_layout(tmp_path):
    traj = run(SimConfig(n=3, duration=1.0, seed=1))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    data = path.read_bytes()
    assert b"\r" not in data  # LF line endings only
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "t,agent,px,py,vx,vy"
    assert len(lines) == 1 + traj.n_snapshots * 3
    # Full float round trip through the text form.
    first = lines[1].split(",")
    assert float(first[0]) == traj.times[0]
    assert float(first[2]) == traj.positions[0, 0, 0]
    assert float(first[5]) == traj.velocities[0, 0, 1]


def test_trajectory_csv_adaptive_columns(tmp_path):
    from flocksim import AdaptationParams, EnergyState
    cfg = SimConfig(
        n=3, duration=1.0, seed=0, adaptive=True,
        params=InteractionParams(delta=2.0, eta=15.0),
        energy=EnergyState(initial=80.0),
        adaptation=AdaptationParams(),
    )
    traj = run(cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "t,agent,px,py,vx,vy,delta,eta,energy"


def test_metrics_csv_layout(tmp_path):
    traj = run(SimConfig(n=3, duration=1.0, seed=1))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(traj, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("t,h,r_agg,d_avg,d_min,"
                        "edge_pos_err_x,edge_pos_err_y,"
                        "edge_vel_err_x,edge_vel_err_y")
    assert len(lines) == 1 + traj.n_snapshots
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(traj.metrics[0].h, rel=1e-15)


def test_sweep_csv_layout(tmp_path):
    rows = [
        SweepRow(eta=3.0, n=5, seed=0, h_final=0.95, r_agg_final=4.2,
                 d_min_overall=1.1, aggregation_lost=False),
        SweepRow(eta=13.0, n=5, seed=0, h_final=float("nan"), r_agg_final=9.0,
                 d_min_overall=0.8, aggregation_lost=True, delta=1.5),
    ]
    plain = tmp_path / "sweep.csv"
    write_sweep_csv(rows, plain)
    lines = plain.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "eta,n,seed,h_final,r_agg_final,d_min_overall,aggregation_lost"
    assert lines[1].endswith("false")
    assert lines[2].endswith("true")
    assert math.isnan(float(lines[2].split(",")[3]))

    with_delta = tmp_path / "sweep_delta.csv"
    write_sweep_csv(rows, with_delta, include_delta=True)
    lines = with_delta.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("delta,")
    assert lines[2].split(",")[0] == "1.5"

    # A row built by hand from NumPy floats writes the same fields.
    numpy_row = dataclasses.replace(rows[1], eta=np.float64(13.0), h_final=np.float64("nan"),
                                    r_agg_final=np.float32(9.0), delta=np.float64(1.5))
    write_sweep_csv([rows[1], numpy_row], with_delta, include_delta=True)
    lines = with_delta.read_text(encoding="utf-8").splitlines()
    assert lines[1] == lines[2]


def test_csv_writers_equal_csv_module_form(tmp_path):
    # The writers join fields with ","; csv.writer, written out here, is the
    # oracle for their bytes: an adaptive run with energies, NaN metrics
    # (one agent, so no pair has an edge) and a sweep with NaN and delta.
    adaptive = preset("adaptive-fig9").config
    runs = [run(dataclasses.replace(adaptive, n=6, duration=2.0, seed=2)),
            run(SimConfig(n=2, m=3, duration=0.5, seed=1, init_pos_range=(0.0, 500.0),
                          params=InteractionParams(radius=1.0)))]
    for traj in runs:
        axes = "xyz"[:traj.config.m]
        rows = [["t", "agent", *(f"p{a}" for a in axes), *(f"v{a}" for a in axes)]
                + (["delta", "eta"] if traj.deltas is not None else [])
                + (["energy"] if traj.energies is not None else [])]
        for k, t in enumerate(traj.times.tolist()):
            for i in range(traj.config.n):
                values = [*traj.positions[k, i], *traj.velocities[k, i]]
                if traj.deltas is not None:
                    values += [traj.deltas[k, i], traj.etas[k, i]]
                if traj.energies is not None:
                    values.append(traj.energies[k, i])
                rows.append([repr(t), str(i), *(repr(float(v)) for v in values)])
        metric_rows = [["t", "h", "r_agg", "d_avg", "d_min",
                        *(f"edge_pos_err_{a}" for a in axes),
                        *(f"edge_vel_err_{a}" for a in axes)]]
        metric_rows += [[repr(float(v)) for v in (s.time, s.h, s.r_agg, s.d_avg, s.d_min,
                                                  *s.mean_edge_pos_err, *s.mean_edge_vel_err)]
                        for s in traj.metrics]
        for writer, want in ((write_trajectory_csv, rows), (write_metrics_csv, metric_rows)):
            expected = io.StringIO()
            csv.writer(expected, lineterminator="\n").writerows(want)
            writer(traj, tmp_path / "out.csv")
            assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode("utf-8")
    assert np.isnan(runs[1].metrics[0].mean_edge_pos_err).all()
    sweep_rows = [SweepRow(eta=3.0, n=5, seed=0, h_final=0.95, r_agg_final=4.2,
                           d_min_overall=1e-7, aggregation_lost=False, delta=0.5),
                  SweepRow(eta=13.0, n=5, seed=0, h_final=float("nan"), r_agg_final=9.0,
                           d_min_overall=0.8, aggregation_lost=True, delta=1.5)]
    expected = io.StringIO()
    out = csv.writer(expected, lineterminator="\n")
    out.writerow(["delta", "eta", "n", "seed", "h_final", "r_agg_final", "d_min_overall",
                  "aggregation_lost"])
    for r in sweep_rows:
        out.writerow([str(r.delta), str(r.eta), str(r.n), str(r.seed), str(r.h_final),
                      str(r.r_agg_final), str(r.d_min_overall), str(r.aggregation_lost).lower()])
    got = io.StringIO()
    write_sweep_csv(sweep_rows, got, include_delta=True)
    assert got.getvalue() == expected.getvalue()


class _RecordingStream(io.StringIO):
    """A text stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_csv_writers_chunk_rows_and_special_floats(tmp_path):
    # Floats that repr must keep apart or print alike (-0.0 beside 0.0, NaN of
    # either sign, +-inf, the smallest subnormal, the exponent switch points
    # 1e16 and 1e-05, 1e22, integral floats), drawn so that each value recurs
    # on both sides of every chunk boundary, in a trajectory and a metric
    # series of at least three chunks each; csv.writer is the oracle, for a
    # path and an open stream.  No write holds more than one chunk's rows.
    special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05,
                        1e22, 3.0, -7.0, 0.1, 1e16 - 2.0, 0.30000000000000004])
    rng = np.random.default_rng(5)
    n, m = 5, 3
    snapshots = 3 * lab._CHUNK_CELLS // (4 + 2 * m) + 7  # metric rows: 3 chunks and part of a 4th

    def draw(*shape):
        return np.where(rng.random(shape) < 0.5, rng.choice(special, shape),
                        rng.normal(0.0, 10.0, shape))

    times = draw(snapshots)
    times[:3] = [0.0, -0.0, 0.0]
    cfg = SimConfig(n=n, m=m, duration=1.0, adaptive=True, energy=EnergyState(initial=80.0),
                    adaptation=AdaptationParams())
    traj = engine.Trajectory(
        config=cfg, times=times, positions=draw(snapshots, n, m),
        velocities=draw(snapshots, n, m), deltas=draw(snapshots, n), etas=draw(snapshots, n),
        energies=draw(snapshots, n), metrics=[], events=[])
    traj.metrics.extend(MetricSample(float(t), *draw(4).tolist(), draw(m), draw(m))
                        for t in times.tolist())
    axes = "xyz"
    rows = [["t", "agent", *(f"p{a}" for a in axes), *(f"v{a}" for a in axes),
             "delta", "eta", "energy"]]
    for k, t in enumerate(times.tolist()):
        for i in range(n):
            values = [*traj.positions[k, i], *traj.velocities[k, i], traj.deltas[k, i],
                      traj.etas[k, i], traj.energies[k, i]]
            rows.append([repr(t), str(i), *(repr(float(v)) for v in values)])
    metric_rows = [["t", "h", "r_agg", "d_avg", "d_min", *(f"edge_pos_err_{a}" for a in axes),
                    *(f"edge_vel_err_{a}" for a in axes)]]
    metric_rows += [[repr(float(v)) for v in (s.time, s.h, s.r_agg, s.d_avg, s.d_min,
                                              *s.mean_edge_pos_err, *s.mean_edge_vel_err)]
                    for s in traj.metrics]
    for writer, want in ((write_trajectory_csv, rows), (write_metrics_csv, metric_rows)):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(want)
        writer(traj, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode("utf-8")
        stream = _RecordingStream()
        writer(traj, stream)
        assert stream.getvalue() == expected.getvalue()
        # Header, then one write per chunk of at most _CHUNK_CELLS // width rows.
        chunk_rows = lab._CHUNK_CELLS // (len(want[0]) - (2 if writer is write_trajectory_csv
                                                          else 1))
        lines = expected.getvalue().splitlines(keepends=True)
        assert stream.sizes[0] == len(lines[0]) and len(stream.sizes) >= 4
        assert len(stream.sizes) == 1 + -(-(len(lines) - 1) // chunk_rows)
        assert max(stream.sizes[1:]) <= chunk_rows * max(map(len, lines[1:]))
    assert {"-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "1e-05", "1e+22"} <= {
        field for row in rows[1:] for field in row}


def test_export_all_writes_three_files(tmp_path):
    traj = run(SimConfig(n=2, duration=1.0, seed=0))
    paths = export_all(traj, tmp_path / "out")
    assert sorted(paths) == ["config", "metrics", "trajectory"]
    for p in paths.values():
        assert (tmp_path / "out").joinpath(p.split("/")[-1]).exists()
    # The exported config reloads to the original.
    assert load_config(paths["config"]) == traj.config
