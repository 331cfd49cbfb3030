"""Byte identity of the package's outputs.

One test recomputes sha256 digests of fixed runs, sweeps and exports and
compares them with ``tests/digests.json``: the eight presets' exports (the
two that cost more than 0.3 s shortened), three seeds of a small sweep, a
cluttered adaptive run with its exports and Lyapunov monitor reports, a
large plain run's arrays and metrics, the metrics of its 3-D twin, a 3-D
run with per-agent radii, a reduced phase-fig5 grid and the event log of a
run with coincident pairs and negative energies.  The inputs mirror the
benchmark's workload configs but are built here, so a benchmark change
cannot move them.

The digests are bitwise, so they depend on the NumPy and Python versions
recorded with them.  After a change that is meant to move outputs,
regenerate the file with ``PYTHONPATH=src python tests/test_digests.py --write``
and name the moved artifacts in the change's notes; any other argument
prints the usage and exits with code 2, leaving the file as it is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from flocksim import engine, graph, lab
from flocksim.cognition import EnergyState
from flocksim.core import InteractionParams
from flocksim.environment import ObstacleSpec, TargetSpec

DIGESTS = Path(__file__).with_name("digests.json")
USAGE = "usage: PYTHONPATH=src python tests/test_digests.py --write"

# Presets whose full run and export cost more than 0.3 s, with the duration
# they run for here.
SHORTENED = {"adaptive-fig9": 20.0, "spatial-fig7": 10.0}


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _run_artifacts(name: str, traj, out_dir: Path) -> dict[str, str]:
    """Digests of each export_all file of ``traj`` and of its events."""
    paths = lab.export_all(traj, out_dir / name.replace(":", "-"))
    out = {f"{name}/{Path(p).name}": _sha(Path(p).read_bytes()) for p in paths.values()}
    out[f"{name}/events"] = _sha(repr(traj.events).encode())
    return out


def _small_sweep(seed: int) -> lab.SweepSpec:
    """The benchmark's small-sweep spec: one eta per eighth of [0, 33]."""
    edges = np.linspace(0.0, 33.0, 9)
    etas = np.random.default_rng(seed).uniform(edges[:-1], edges[1:])
    return lab.SweepSpec(etas=tuple(etas.tolist()), ns=(2, 3, 5, 10), duration=10.0)


def _nav_adapt(seed: int) -> engine.SimConfig:
    """The benchmark's nav-adapt config: cluttered-fig6's field, adaptive-fig9's law."""
    cluttered, adaptive = lab.preset("cluttered-fig6").config, lab.preset("adaptive-fig9").config
    return dataclasses.replace(
        cluttered, n=40, duration=20.0, seed=seed, params=adaptive.params, adaptive=True,
        energy=adaptive.energy, adaptation=adaptive.adaptation)


def artifacts(out_dir: Path) -> dict[str, str]:
    """Artifact name -> sha256 hex digest."""
    out = {}
    for name in lab.list_presets():
        cfg = lab.preset(name).config
        if name in SHORTENED:
            cfg = dataclasses.replace(cfg, duration=SHORTENED[name])
        out.update(_run_artifacts(f"preset:{name}", engine.run(cfg), out_dir))

    for seed in (1, 2, 3):
        rows, failures = lab.sweep(_small_sweep(seed))
        out[f"small-sweep:seed{seed}"] = _sha(repr(rows).encode(), repr(failures).encode())

    cfg = _nav_adapt(1)
    traj = engine.run(cfg)
    out.update(_run_artifacts("nav-adapt:seed1", traj, out_dir))
    reports = []
    for k in range(20, cfg.n_steps + 1, 20):
        params = [dataclasses.replace(cfg.params, delta=float(d), eta=float(e))
                  for d, e in zip(traj.deltas[k], traj.etas[k])]
        try:
            reports.append(graph.lyapunov_monitor(traj.positions[k], traj.velocities[k], params))
        except graph.OracleInapplicableError as exc:
            reports.append(repr(exc))
    out["nav-adapt:seed1/monitors"] = _sha(repr(reports).encode())

    # The 3-D twin's cube has the square's expected neighbour count:
    # 300 * (4/3) pi r**3 / L**3 = 300 * pi r**2 / 75**2 gives L**3 = 75000.
    for tag, m, side in (("", 2, 75.0), ("-3d", 3, 42.17)):
        traj = engine.run(engine.SimConfig(
            n=300, m=m, duration=2.0, seed=1, init_pos_range=(0.0, side),
            init_vel_range=(-1.0, 1.0), params=InteractionParams(delta=1.0, eta=3.0, radius=10.0)))
        if not tag:
            out["large-flock:seed1"] = _sha(traj.times, traj.positions, traj.velocities)
        lab.write_metrics_csv(traj, out_dir / "metrics.csv")
        out[f"large-flock{tag}:seed1/metrics.csv"] = _sha((out_dir / "metrics.csv").read_bytes())

    radii = np.random.default_rng(4).uniform(1.5, 6.0, 16).tolist()
    out.update(_run_artifacts("3d-radii", engine.run(engine.SimConfig(
        n=16, m=3, duration=5.0, seed=4, init_pos_range=(0.0, 6.0), cluttered=True,
        params=tuple(InteractionParams(eta=4.0, radius=r) for r in radii),
        target=TargetSpec(position=(20.0, 20.0, 20.0), kappa=0.2),
        obstacles=(ObstacleSpec(center=(8.0, 8.0, 8.0), radius=1.0, detection=9.0),
                   ObstacleSpec(center=(10.0, 9.0, 7.0), radius=1.0, detection=9.0)))),
        out_dir))

    spec = lab.preset("phase-fig5").sweep
    rows, failures = lab.sweep(dataclasses.replace(
        spec, etas=spec.etas[::6], ns=(2, 5, 10, 50), duration=3.0))
    out["phase-fig5:reduced-grid"] = _sha(repr(rows).encode(), repr(failures).encode())

    adaptive = lab.preset("adaptive-fig9").config
    traj = engine.run(dataclasses.replace(
        adaptive, n=6, duration=3.0, init_pos_range=(5.0, 5.0),
        energy=EnergyState(initial=1.0, c1=adaptive.energy.c1, c2=adaptive.energy.c2)))
    kinds = {e.kind for e in traj.events}
    assert kinds == {"coincident_pair", "negative_energy"}, kinds  # the run covers both kinds
    out["events:coincident-and-energy"] = _sha(repr(traj.events).encode())
    return out


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    got = artifacts(tmp_path)
    want = recorded["artifacts"]
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    note = ""
    if recorded["versions"] != versions():
        note = (f"; the digests were recorded under {recorded['versions']} and this is "
                f"{versions()}, so the versions alone may explain the difference")
    assert not moved, f"{len(moved)} artifact(s) moved: {', '.join(moved)}{note}"


def test_runs_around_a_sweep_match_their_digests(tmp_path):
    # The pair layout cache holds one entry, a run's (n,) or a sweep's cell
    # sizes: a run after a sweep rebuilds its own (the Cucker-Smale law reads
    # it too), so runs before and after a sweep match their digests.  A run
    # of as many agents as the sweep has rows gives the same bytes on both
    # sides, and must not hand the sweep its layout either.
    want = json.loads(DIGESTS.read_text())["artifacts"]
    spec = _small_sweep(1)
    rows_n = len(spec.etas) * sum(spec.ns)
    wide = dataclasses.replace(lab.preset("flocking-fig2a").config, n=rows_n, duration=1.0)

    def runs(tag):
        out = {}
        for name in ("cucker-smale-baseline", "flocking-fig2a"):
            traj = engine.run(lab.preset(name).config)
            out.update(_run_artifacts(f"preset:{name}", traj, tmp_path / tag))
        return out, _sha(engine.run(wide).positions)

    before = runs("before")
    rows, failures = lab.sweep(spec)
    assert _sha(repr(rows).encode(), repr(failures).encode()) == want["small-sweep:seed1"]
    assert runs("after") == before
    assert before[0] == {key: want[key] for key in before[0]}


def main(argv: list[str], path: Path = DIGESTS) -> int:
    """Rewrite ``path`` from the current tree when ``argv`` is exactly
    ``["--write"]``; otherwise print the usage and return 2, writing nothing."""
    if argv != ["--write"]:
        print(USAGE, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"versions": versions(), "artifacts": artifacts(Path(tmp))}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['artifacts'])} digests to {path}", file=sys.stderr)
    return 0


def test_main_writes_only_on_explicit_flag(tmp_path, monkeypatch, capsys):
    path = tmp_path / "digests.json"
    path.write_bytes(DIGESTS.read_bytes())
    for argv in ([], ["--help"], ["-h"], ["--write", "extra"], ["write"], ["--writ"]):
        assert main(argv, path) == 2
        assert path.read_bytes() == DIGESTS.read_bytes()
        assert capsys.readouterr().err == USAGE + "\n"
    monkeypatch.setattr(sys.modules[__name__], "artifacts", lambda out_dir: {"a": "0"})
    assert main(["--write"], path) == 0
    assert json.loads(path.read_text()) == {"versions": versions(), "artifacts": {"a": "0"}}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
