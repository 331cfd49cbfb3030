"""Unit tests for presets, sweeps, config serialization, and CSV export."""

import json
import math

import numpy as np
import pytest

from flocksim import (
    ConfigError,
    InteractionParams,
    SimConfig,
    SweepRow,
    SweepSpec,
    export,
    export_all,
    list_presets,
    load_config,
    preset,
    run,
    save_config,
    sweep,
)
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
                dict(duration=math.inf)):
        with pytest.raises(ConfigError):
            SweepSpec(**{"etas": (3.0,), "ns": (5,), **bad})
    assert not SweepSpec(etas=(3.0,), ns=(5,)).has_delta_axis
    assert SweepSpec(etas=(3.0,), ns=(5,), deltas=(0.5, 1.0)).has_delta_axis


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


# ---------------------------------------------------------------------------
# Config serialization


@pytest.mark.parametrize("name", EXPECTED_PRESETS)
def test_config_dict_round_trip(name):
    cfg = preset(name).config
    doc = config_to_dict(cfg)
    json.dumps(doc)  # must be JSON-serializable as-is
    assert config_from_dict(doc) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = preset("cluttered-fig6").config
    path = tmp_path / "scenario.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


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


def test_per_agent_params_round_trip():
    cfg = SimConfig(
        n=2, duration=1.0,
        params=(InteractionParams(delta=0.5), InteractionParams(delta=1.5)),
    )
    doc = config_to_dict(cfg)
    assert isinstance(doc["params"], list) and len(doc["params"]) == 2
    assert config_from_dict(doc) == cfg


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
        energy=EnergyState(energy=80.0, initial=80.0),
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


def test_export_dispatch(tmp_path):
    traj = run(SimConfig(n=2, duration=1.0, seed=0))
    out = export(traj, "metrics", tmp_path / "m.csv")
    assert (tmp_path / "m.csv").exists() and out.endswith("m.csv")
    with pytest.raises(ConfigError):
        export(traj, "parquet", tmp_path / "x")


def test_export_all_writes_three_files(tmp_path):
    traj = run(SimConfig(n=2, duration=1.0, seed=0))
    paths = export_all(traj, tmp_path / "out")
    assert sorted(paths) == ["config", "metrics", "trajectory"]
    for p in paths.values():
        assert (tmp_path / "out").joinpath(p.split("/")[-1]).exists()
    # The exported config reloads to the original.
    assert load_config(paths["config"]) == traj.config
