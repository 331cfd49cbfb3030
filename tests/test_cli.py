"""In-process tests of the command-line front end and its exit codes."""

import json

import pytest

from flocksim import SimConfig, preset, save_config
from flocksim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main


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


def test_validate_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "duration": 1.0}), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


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


def test_sweep_bad_spec_exits_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"etas": [3.0], "ns": [2], "bogus": 1}),
                    encoding="utf-8")
    assert main(["sweep", str(spec), "--out-dir", str(tmp_path)]) == EXIT_CONFIG


_BAD_VALUES = {
    "duration-infinite": '{"n": 4, "duration": Infinity}',
    "duration-nan": '{"n": 4, "duration": NaN}',
    "n-fractional": '{"n": 5.7, "duration": 1.0}',
    "init-range-nan": '{"n": 4, "duration": 1.0, "init_pos_range": [NaN, 1.0]}',
    "flag-string": '{"n": 4, "duration": 1.0, "adaptive": "false"}',
    "delta-nan": '{"n": 4, "duration": 1.0, "params": {"delta": NaN}}',
    "radius-infinite": '{"n": 4, "duration": 1.0, "params": {"radius": Infinity}}',
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
