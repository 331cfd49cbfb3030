"""The flockbench workloads: inputs generated from a seed, one timed
operation each, and the output checks that run outside the timed section.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses a flocksim imported from anywhere else, so the benchmark always
measures the source tree it sits in.  Every flocksim function is looked up
through its module attribute at call time (``engine.run``, never a name
bound at import), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import sys
from itertools import count
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flocksim  # noqa: E402
from flocksim import core, engine, graph, lab  # noqa: E402

if not Path(flocksim.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"flocksim resolved to {flocksim.__file__}, not under {ROOT / 'src'}")

# global_rhs and the per-agent sums add the same terms in different orders,
# so they agree to rounding, far inside this relative tolerance.
RHS_RTOL = 1e-9
# Slack for invariants that hold exactly in real arithmetic (h in [-1, 1],
# speed <= v_max after the tanh cap).
ROUND_SLACK = 1e-9


@dataclasses.dataclass
class OpResult:
    """Work and failure counts of one operation, and a digest of its outputs."""

    agent_steps: int
    cells: int  # simulation runs completed: engine.run calls or sweep cells
    attempted: int
    failed: int
    fingerprint: str


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _state_problems(traj, where: str) -> list[str]:
    """Finite states and speeds within each agent's v_max at every snapshot."""
    problems = []
    if not (np.isfinite(traj.positions).all() and np.isfinite(traj.velocities).all()):
        problems.append(f"{where}: non-finite state")
    v_max = np.array([p.v_max for p in traj.config.params_list()])
    speed = np.linalg.norm(traj.velocities, axis=2)
    if (speed > v_max * (1.0 + ROUND_SLACK)).any():
        problems.append(f"{where}: speed {speed.max():.6g} above v_max")
    return problems


def _rhs_problems(positions, velocities, params, where: str) -> list[str]:
    """graph.global_rhs against a per-agent core.interaction_acceleration sum."""
    n, m = positions.shape
    plist = params if isinstance(params, list) else [params] * n
    stacked = graph.global_rhs(positions, velocities, plist).reshape(n, m)
    per_agent = np.array([
        core.interaction_acceleration(i, positions, velocities, plist[i]) for i in range(n)
    ])
    scale = max(1.0, float(np.abs(per_agent).max()))
    err = float(np.abs(stacked - per_agent).max())
    if err > RHS_RTOL * scale:
        return [f"{where}: global_rhs differs from per-agent sums by {err:.3g}"]
    return []


def _determinism_problems(config, where: str) -> list[str]:
    a, b = engine.run(config), engine.run(config)
    if _digest(a.positions, a.velocities) != _digest(b.positions, b.velocities):
        return [f"{where}: two same-seed runs differ"]
    return _state_problems(a, where)


class _Workload:
    """Defaults for workloads whose operations leave nothing to check or remove."""

    def check(self, result) -> list[str]:
        """Checks cheap enough to run after every timed operation."""
        return []

    def cleanup(self, result) -> None:
        pass


class LargeFlock(_Workload):
    """One plain-law run of a large flock; the per-agent force loop dominates."""

    name = "large-flock"

    def __init__(self, seed: int, tiny: bool = False, work_dir: Path | None = None):
        n, upper, duration = (30, 7.5, 0.3) if tiny else (300, 75.0, 2.0)
        self.config = engine.SimConfig(
            n=n, m=2, dt=0.1, duration=duration, seed=seed,
            init_pos_range=(0.0, upper), init_vel_range=(-1.0, 1.0),
            params=core.InteractionParams(delta=1.0, eta=3.0, radius=10.0),
        )

    def setup_config(self):
        return self.config

    def run_once(self):
        return engine.run(self.config)

    def account(self, traj) -> OpResult:
        return OpResult(
            agent_steps=self.config.n * self.config.n_steps, cells=1,
            attempted=1, failed=0,
            fingerprint=_digest(traj.positions, traj.velocities),
        )

    def check_reference(self, traj) -> list[str]:
        problems = _state_problems(traj, self.name)
        last = traj.n_snapshots - 1
        for k in sorted({0, last // 2, last}):
            problems += _rhs_problems(traj.positions[k], traj.velocities[k],
                                      self.config.params, f"{self.name} snapshot {k}")
        return problems


class SmallSweep(_Workload):
    """One lab.sweep over small populations; fixed per-cell and per-step cost dominates."""

    name = "small-sweep"

    def __init__(self, seed: int, tiny: bool = False, work_dir: Path | None = None):
        strata, ns, duration = (2, (2, 3), 0.5) if tiny else (8, (2, 3, 5, 10), 10.0)
        # One eta per equal-width stratum of [0, 33]: the seed moves the
        # values, while every seed covers the flocking, vortexing and
        # swarming ranges alike.
        edges = np.linspace(0.0, 33.0, strata + 1)
        etas = np.random.default_rng(seed).uniform(edges[:-1], edges[1:])
        self.spec = lab.SweepSpec(etas=tuple(etas.tolist()), ns=ns, duration=duration)
        self.n_steps = self.setup_config().n_steps

    def _cell_config(self, eta: float, n: int):
        # The config lab.sweep builds for the cell (eta, n, delta, seed 0).
        return engine.SimConfig(
            n=n, duration=self.spec.duration, dt=self.spec.dt, seed=0,
            init_pos_range=(0.0, lab.init_upper_for(n)), init_vel_range=(-1.0, 1.0),
            params=core.InteractionParams(delta=self.spec.deltas[0], eta=eta),
        )

    def setup_config(self):
        return self._cell_config(self.spec.etas[0], self.spec.ns[0])

    def run_once(self):
        return lab.sweep(self.spec)

    def account(self, result) -> OpResult:
        rows, failures = result
        return OpResult(
            agent_steps=sum(r.n for r in rows) * self.n_steps, cells=len(rows),
            attempted=len(rows) + len(failures), failed=len(failures),
            fingerprint=hashlib.sha256(repr(rows).encode()).hexdigest(),
        )

    def check_reference(self, result) -> list[str]:
        rows, _ = result
        problems = []
        for r in rows:
            if not -1.0 - ROUND_SLACK <= r.h_final <= 1.0 + ROUND_SLACK:
                problems.append(f"{self.name}: h_final {r.h_final} outside [-1, 1] "
                                f"at eta={r.eta} n={r.n}")
            if not (math.isfinite(r.r_agg_final) and math.isfinite(r.d_min_overall)):
                problems.append(f"{self.name}: non-finite row at eta={r.eta} n={r.n}")
        cell = self._cell_config(self.spec.etas[-1], self.spec.ns[-1])
        return problems + _determinism_problems(cell, f"{self.name} cell")


class NavAdaptPipeline(_Workload):
    """Cluttered adaptive run, then CSV/JSON export and Lyapunov monitoring."""

    name = "nav-adapt-pipeline"

    def __init__(self, seed: int, tiny: bool = False, work_dir: Path | None = None):
        n, duration, stride = (10, 2.0, 5) if tiny else (40, 20.0, 20)
        cluttered = lab.preset("cluttered-fig6").config
        adaptive = lab.preset("adaptive-fig9").config
        self.config = dataclasses.replace(
            cluttered, n=n, duration=duration, seed=seed, params=adaptive.params,
            adaptive=True, energy=adaptive.energy, adaptation=adaptive.adaptation,
        )
        # The first snapshot is skipped: the whole group starts inside one
        # radius, and the dense monitor of that all-to-all graph costs more
        # than the rest of the operation together.
        self.monitor_at = tuple(range(stride, self.config.n_steps + 1, stride))
        self.work_dir = work_dir
        self._export_ids = count()

    def setup_config(self):
        return self.config

    def _adapted_params(self, traj, k: int) -> list:
        return [dataclasses.replace(self.config.params, delta=float(d), eta=float(e))
                for d, e in zip(traj.deltas[k], traj.etas[k])]

    def run_once(self):
        traj = engine.run(self.config)
        paths = lab.export_all(traj, self.work_dir / f"export-{next(self._export_ids)}")
        monitors, failed = [], 0
        for k in self.monitor_at:
            try:
                monitors.append(graph.lyapunov_monitor(
                    traj.positions[k], traj.velocities[k], self._adapted_params(traj, k)))
            except graph.OracleInapplicableError:
                failed += 1
        return traj, paths, monitors, failed

    def account(self, result) -> OpResult:
        traj, _, monitors, failed = result
        return OpResult(
            agent_steps=self.config.n * self.config.n_steps, cells=1,
            attempted=1 + len(self.monitor_at), failed=failed,
            fingerprint=_digest(traj.positions, traj.velocities),
        )

    def check_reference(self, result) -> list[str]:
        traj = result[0]
        problems = _state_problems(traj, self.name)
        for k in self.monitor_at[:: max(1, len(self.monitor_at) // 3)]:
            problems += _rhs_problems(traj.positions[k], traj.velocities[k],
                                      self._adapted_params(traj, k),
                                      f"{self.name} snapshot {k}")
        return problems

    def check(self, result) -> list[str]:
        """Exported files and monitor values."""
        traj, paths, monitors, _ = result
        problems = []
        with open(paths["trajectory"], encoding="utf-8") as fh:
            traj_rows = sum(1 for _ in fh) - 1
        with open(paths["metrics"], encoding="utf-8") as fh:
            metric_rows = sum(1 for _ in fh) - 1
        if traj_rows != traj.n_snapshots * self.config.n:
            problems.append(f"{self.name}: trajectory.csv has {traj_rows} rows, "
                            f"expected {traj.n_snapshots * self.config.n}")
        if metric_rows != traj.n_snapshots:
            problems.append(f"{self.name}: metrics.csv has {metric_rows} rows, "
                            f"expected {traj.n_snapshots}")
        if lab.load_config(paths["config"]) != self.config:
            problems.append(f"{self.name}: config.json does not round-trip")
        for mon in monitors:
            if not (math.isfinite(mon["value"]) and math.isfinite(mon["derivative"])):
                problems.append(f"{self.name}: non-finite Lyapunov monitor value")
        return problems

    def cleanup(self, result) -> None:
        shutil.rmtree(Path(result[1]["config"]).parent)


WORKLOADS = {cls.name: cls for cls in (LargeFlock, SmallSweep, NavAdaptPipeline)}


def make(name: str, seed: int, tiny: bool = False, work_dir: Path | None = None):
    return WORKLOADS[name](seed, tiny=tiny, work_dir=work_dir)
