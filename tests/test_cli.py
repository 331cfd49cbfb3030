"""In-process tests of the command-line front end and its exit codes."""

import json

import pytest

from flocksim import SimConfig, lab, preset, save_config
from flocksim.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main


def test_list_presets(capsys):
    assert main(["list-presets"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("flocking-fig2a", "vortexing-fig2b", "swarming-fig2c",
                 "cluttered-fig6", "adaptive-fig9", "cucker-smale-baseline"):
        assert name in out


def test_validate_good_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    save_config(SimConfig(n=4, duration=2.0), path)
    assert main(["validate", str(path)]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_validate_reports_mode(tmp_path, capsys):
    path = tmp_path / "cs.json"
    save_config(preset("cucker-smale-baseline").config, path)
    assert main(["validate", str(path)]) == EXIT_OK
    assert "cucker-smale" in capsys.readouterr().out


# A top-level error prints once after "config error: "; a nested block and
# the sweep spec keep their own prefix.
_INT = "must be an integer, got a number beyond the float range"
_NUM = "must be a finite number, got a number beyond the float range"
_EXACT_ERRORS = {
    "too-few-agents": ("validate", {"n": 1, "duration": 1.0}, "need at least two agents"),
    "unknown-key": ("validate", {"n": 4, "duration": 1.0, "extra": 1}, "unknown keys ['extra']"),
    "missing-key": ("validate", {"duration": 1.0}, "missing key 'n'"),
    "not-a-mapping": ("simulate", [4, 1.0], "expected a mapping, got list"),
    "params-count": ("validate", {"n": 4, "duration": 1.0, "params": [{}, {}]},
                     "params: need 4 InteractionParams blocks, got 2"),
    "params-item": ("validate", {"n": 3, "duration": 1.0, "params": [{}, {"delta": -1.0}, {}]},
                    "params[1]: delta and eta must be non-negative"),
    "obstacle": ("validate", {"n": 4, "duration": 1.0, "cluttered": True, "obstacles": [
        {"center": [5.0, 5.0], "radius": 0.0, "detection": 3.0}]},
        "obstacles[0]: radius and detection must be positive"),
    "target": ("simulate", {"n": 4, "duration": 1.0, "cluttered": True,
                            "target": {"position": [9.0, 9.0], "kappa": -1.0}},
               "target: kappa must be non-negative"),
    "energy": ("validate", {"n": 4, "duration": 1.0, "adaptive": True,
                            "energy": {"initial": 80.0, "energy": 3}, "adaptation": {}},
               "energy: unknown keys ['energy']"),
    "sweep-spec": ("sweep", {"etas": [3.0], "ns": [2], "extra": 1},
                   "sweep spec: unknown keys ['extra']"),
    # Integers beyond the float range are refused by the field's own rule.
    "n-beyond-float": ("validate", {"n": 10**400, "duration": 1.0}, f"n {_INT}"),
    "seed-beyond-float": ("simulate", {"n": 2, "duration": 1.0, "seed": -10**400}, f"seed {_INT}"),
    "dt-beyond-float": ("simulate", {"n": 2, "duration": 1.0, "dt": 10**400}, f"dt {_NUM}"),
    "range-beyond-float": ("validate", {"n": 2, "duration": 1.0, "init_pos_range": [0, 10**400]},
                           f"init_pos_range {_NUM}"),
    "delta-beyond-float": ("simulate", {"n": 2, "duration": 1.0, "params": {"delta": 10**400}},
                           f"params: delta {_NUM}"),
    "target-beyond-float": ("validate", {"n": 2, "duration": 1.0, "cluttered": True,
                                         "target": {"position": [10**400, 0.0]}},
                            f"target: position {_NUM}"),
    "etas-beyond-float": ("sweep", {"etas": [10**400], "ns": [2]}, f"sweep spec: etas {_NUM}"),
    "ns-beyond-float": ("sweep", {"etas": [3.0], "ns": [10**400]}, f"sweep spec: ns {_INT}"),
    "seeds-beyond-float": ("sweep", {"etas": [3.0], "ns": [2], "seeds": 10**400},
                           f"sweep spec: seeds {_INT}"),
    # Finite bounds whose step count duration / dt is not.
    "steps-beyond-float": ("validate", {"n": 2, "duration": 1e308, "dt": 1e-10},
                           "duration / dt must be finite"),
    # A finite step count too large to record prints in short form, not in 301 digits.
    "snapshots-beyond-memory": ("validate", {"n": 2, "duration": 1e300, "dt": 1.0},
                                "cannot record 1.000e+300 snapshots x 2 agents: "
                                "Maximum allowed dimension exceeded"),
}


@pytest.mark.parametrize("command, doc, message", list(_EXACT_ERRORS.values()),
                         ids=list(_EXACT_ERRORS))
def test_config_errors_name_each_block_once(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n" and captured.out == ""


def test_seed_override_beyond_float_range_exits_1(capsys):
    assert main(["simulate", "flocking-fig2a", "--seed", str(10**400)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: seed {_INT}\n" and captured.out == ""


@pytest.mark.parametrize("command, head", [("validate", '{"n": 3, "duration": 1.0, "seed": '),
                                           ("sweep", '{"etas": [3.0], "ns": [2], "seeds": ')],
                         ids=["validate", "sweep"])
def test_integer_literal_past_the_digit_limit_is_not_valid_json(tmp_path, capsys, command, head):
    # json.load refuses an int literal of more than 4300 digits with a ValueError.
    path = tmp_path / "doc.json"
    path.write_text(head + "9" * 5000 + "}", encoding="utf-8")
    assert main([command, str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {path}: not valid JSON: Exceeds the limit")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_validate_missing_file_exits_3(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_IO
    assert "i/o failure" in capsys.readouterr().err


def test_simulate_preset_with_overrides(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["simulate", "flocking-fig2a", "--duration", "1",
                 "--seed", "5", "--out", str(out_dir)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "final:" in out and "seed 5" in out
    for fname in ("trajectory.csv", "metrics.csv", "config.json"):
        assert (out_dir / fname).exists()


def test_simulate_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    save_config(SimConfig(n=3, duration=1.0, seed=2), path)
    assert main(["simulate", str(path)]) == EXIT_OK
    assert "3 agents" in capsys.readouterr().out


@pytest.mark.parametrize("doc, line", [
    # Two agents started on the same point.
    ({"n": 2, "duration": 1.0, "init_pos_range": [5.0, 5.0]}, "events: coincident_pairx1"),
    # Every agent drains its small energy reserve below zero.
    ({"n": 4, "duration": 3.0, "adaptive": True, "energy": {"initial": 0.2},
      "adaptation": {}}, "events: negative_energyx4"),
])
def test_simulate_prints_event_counts(tmp_path, capsys, doc, line):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", str(path)]) == EXIT_OK
    assert line in capsys.readouterr().out.splitlines()


def test_simulate_unknown_scenario_exits_1(capsys):
    assert main(["simulate", "not-a-preset"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "flocking-fig2a" in err


def test_simulate_out_collides_with_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied", encoding="utf-8")
    code = main(["simulate", "flocking-fig2a", "--duration", "1",
                 "--out", str(blocker)])
    assert code == EXIT_IO


def test_sweep_writes_csv(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"etas": [3.0], "ns": [2], "duration": 1.0}),
                    encoding="utf-8")
    out_dir = tmp_path / "sweep_out"
    assert main(["sweep", str(spec), "--out-dir", str(out_dir)]) == EXIT_OK
    lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("eta,n,seed")
    assert len(lines) == 2


@pytest.mark.filterwarnings("error")
def test_sweep_failed_cell_is_reported_without_numpy_warnings(tmp_path, capsys):
    # A cell whose forces overflow fails alone; the other cell's row stays.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"etas": [3.0], "ns": [2], "deltas": [1.0, 1e160],
                                "duration": 1.0}), encoding="utf-8")
    out_dir = tmp_path / "sweep_out"
    assert main(["sweep", str(spec), "--out-dir", str(out_dir)]) == EXIT_OK
    lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[1].startswith("1.0,3.0,2,0,")
    assert capsys.readouterr().err == (
        "cell failed: eta=3.0 n=2 delta=1e+160 seed=0: non-finite state at step 1 for agent 0\n")


def test_sweep_without_out_dir_writes_csv_to_stdout(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"etas": [3.0, 13.0], "ns": [2, 3], "duration": 1.0}),
                    encoding="utf-8")
    print("before")
    assert main(["sweep", str(spec)]) == EXIT_OK
    print("after")
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "before" and out[-1] == "after"
    assert out[1] == "eta,n,seed,h_final,r_agg_final,d_min_overall,aggregation_lost"
    assert [line.split(",")[:2] for line in out[2:-1]] == [
        ["3.0", "2"], ["3.0", "3"], ["13.0", "2"], ["13.0", "3"]]


@pytest.mark.filterwarnings("error")  # NumPy's overflow warnings must not reach stderr
def test_simulate_non_finite_forces_exits_2(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    for doc, agent in (('{"n": 5, "duration": 1.0, "params": {"alpha": 400.0, "delta": 3.0}}', 1),
                       # Coincident agents whose tie-break weight psi(EPS_POS) overflows.
                       ('{"n": 2, "duration": 1.0, "init_pos_range": [5.0, 5.0], '
                        '"params": {"delta": 1e160}}', 0),
                       # An obstacle weight (1000 / d) ** 400 beyond the float range.
                       ('{"n": 3, "duration": 1.0, "cluttered": true, "obstacles": [{"center": '
                        '[1.0, 1.0], "radius": 1.0, "detection": 1000.0, "sigma_o": 400.0}]}', 0)):
        path.write_text(doc, encoding="utf-8")
        assert main(["simulate", str(path)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            f"numeric failure: non-finite state at step 1 for agent {agent}\n")


@pytest.mark.parametrize("doc", ['{"n": 2, "duration": 1e15}',
                                 '{"n": 2, "duration": 1.0, "dt": 1e-300}'],
                         ids=["duration-huge", "dt-tiny"])
def test_simulate_unrecordable_run_exits_1(tmp_path, capsys, doc):
    # Well-formed configs whose recording arrays cannot be allocated.
    path = tmp_path / "huge.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["simulate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: cannot record" in err and "snapshots x 2 agents" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", ['{"n": 2, "duration": 1e15}',
                                 '{"n": 2, "duration": 1.0, "dt": 1e-300}'],
                         ids=["duration-huge", "dt-tiny"])
def test_validate_refuses_unrecordable_run_as_simulate_does(tmp_path, capsys, doc):
    path = tmp_path / "huge.json"
    path.write_text(doc, encoding="utf-8")
    outcomes = []
    for command in ("validate", "simulate"):
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        outcomes.append((code, captured.err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == EXIT_CONFIG
    assert outcomes[0][1].startswith("config error: cannot record ")


def test_sweep_bad_spec_exits_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"etas": [3.0], "ns": [2], "bogus": 1}),
                    encoding="utf-8")
    assert main(["sweep", str(spec), "--out-dir", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("axis", [{"deltas": [-1.0]}, {"etas": [-0.5]}, {"ns": [1]},
                                  {"breakdown_radius": -5.0},
                                  # Grids too large to hold: a cell of 1e11
                                  # agents, 1e12 seeds; refused at once by size.
                                  {"ns": [100000000000]}, {"seeds": 1000000000000}],
                         ids=["delta-negative", "eta-negative", "n-below-2",
                              "breakdown-radius-negative", "n-unallocatable",
                              "seeds-unholdable"])
def test_sweep_bad_axis_exits_1(tmp_path, capsys, monkeypatch, axis):
    def no_grid(*axes, **kwargs):  # every case is refused before its grid exists
        raise AssertionError("grid built")

    monkeypatch.setattr(lab, "product", no_grid)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"etas": [3.0], "ns": [2], "duration": 1.0, **axis}),
                    encoding="utf-8")
    assert main(["sweep", str(spec)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error:" in captured.err and captured.out == ""


_BAD_VALUES = {
    "duration-infinite": '{"n": 4, "duration": Infinity}',
    "duration-nan": '{"n": 4, "duration": NaN}',
    "n-fractional": '{"n": 5.7, "duration": 1.0}',
    "init-range-nan": '{"n": 4, "duration": 1.0, "init_pos_range": [NaN, 1.0]}',
    "init-range-strings": '{"n": 2, "duration": 1, "init_pos_range": ["0", "5"]}',
    "init-range-bool": '{"n": 2, "duration": 1, "init_vel_range": [true, 2]}',
    "init-range-axis-string": '{"n": 4, "duration": 1.0, "init_pos_range": [[0, 1], [0, "5"]]}',
    # Finite bounds whose width hi - lo overflows: seeding would give inf/NaN.
    "init-width-overflow": '{"n": 4, "duration": 1.0, "init_pos_range": [-1e308, 1e308]}',
    "vel-width-overflow": '{"n": 4, "duration": 1.0, "init_vel_range": [[0, 1], [-1e308, 1e308]]}',
    "flag-string": '{"n": 4, "duration": 1.0, "adaptive": "false"}',
    "delta-nan": '{"n": 4, "duration": 1.0, "params": {"delta": NaN}}',
    "radius-infinite": '{"n": 4, "duration": 1.0, "params": {"radius": Infinity}}',
    "radius-string": '{"n": 4, "duration": 1.0, "params": {"radius": "5"}}',
    "radius-bool": '{"n": 4, "duration": 1.0, "params": {"radius": true}}',
    "delta-bool": '{"n": 4, "duration": 1.0, "params": {"delta": true}}',
    "kappa-string": '{"n": 4, "duration": 1.0, "cluttered": true, '
                    '"target": {"position": [90.0, 90.0], "kappa": "0.5"}}',
    "position-strings": '{"n": 4, "duration": 1.0, "cluttered": true, '
                        '"target": {"position": ["90", "90"]}}',
    "sigma-string": '{"n": 4, "duration": 1.0, "cluttered": true, "obstacles": '
                    '[{"center": [5.0, 5.0], "radius": 1.0, "detection": 3.0, "sigma_o": "3"}]}',
    "obstacles-number": '{"n": 4, "duration": 1.0, "cluttered": true, "obstacles": 5}',
    "energy-string": '{"n": 4, "duration": 1.0, "energy": {"initial": "80"}}',
    "e-th-bool": '{"n": 4, "duration": 1.0, "adaptive": true, "energy": {"initial": 80.0}, '
                 '"adaptation": {"e_th": true}}',
    # Too large to seed (simulate) or to record (validate); the request fails at once.
    "n-unallocatable": '{"n": 100000000000, "duration": 1}',
}


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("doc", list(_BAD_VALUES.values()), ids=list(_BAD_VALUES))
def test_bad_values_exit_1_without_coercion(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc, encoding="utf-8")
    assert main([command, str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert "valid" not in captured.out and "ran" not in captured.out
