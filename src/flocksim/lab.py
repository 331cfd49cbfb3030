"""Scenario presets, parameter sweeps, and file I/O for experiments.

Configs serialize to a flat JSON document with explicit units (meters,
seconds, m/s); unknown keys are rejected so typos fail fast instead of
silently running a different experiment.  All exports are plain CSV
(UTF-8, LF, header row) with full round-trip float precision.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

from .cognition import AdaptationParams, EnergyState
from .core import CuckerSmaleParams, InteractionParams
from .engine import ConfigError, SimConfig, SimulationNumericsError, Trajectory, as_number, run
from .environment import ObstacleSpec, TargetSpec

# Upper init-range bound for large populations; below 50 agents the
# standard 10 m box applies.
EXTENDED_INIT_UPPER = {50: 20.0, 100: 30.0, 200: 50.0, 300: 75.0}


def init_upper_for(n: int) -> float:
    """Initialization box upper bound used by the sweep scenarios."""
    return EXTENDED_INIT_UPPER.get(n, 10.0)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (eta, n[, delta]) cells, each run for ``seeds`` seeds.

    A cell whose final aggregation radius exceeds ``breakdown_radius``
    is flagged as having lost aggregation.
    """

    etas: tuple[float, ...]
    ns: tuple[int, ...]
    deltas: tuple[float, ...] = (1.0,)
    seeds: int = 1
    duration: float = 30.0
    dt: float = 0.1
    breakdown_radius: float = 100.0

    def __post_init__(self):
        for name in ("etas", "ns", "deltas"):
            values = tuple(as_number(x, name, name == "ns") for x in getattr(self, name))
            object.__setattr__(self, name, values)
        for name in ("seeds", "duration", "dt", "breakdown_radius"):
            object.__setattr__(self, name, as_number(getattr(self, name), name, name == "seeds"))
        if not self.etas or not self.ns or not self.deltas:
            raise ConfigError("sweep axes must be nonempty")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if self.dt <= 0 or self.duration < self.dt:
            raise ConfigError("invalid sweep duration/dt")

    @property
    def has_delta_axis(self) -> bool:
        return len(self.deltas) > 1


@dataclass(frozen=True)
class SweepRow:
    """Summary of one sweep cell run."""

    eta: float
    n: int
    seed: int
    h_final: float
    r_agg_final: float
    d_min_overall: float
    aggregation_lost: bool
    delta: float = 1.0


@dataclass(frozen=True)
class ScenarioPreset:
    """Named, fully specified scenario; sweep grids attach where relevant."""

    name: str
    config: SimConfig
    note: str
    sweep: SweepSpec | None = None


def _fig2_config(n: int, eta: float, **overrides) -> SimConfig:
    base = dict(
        n=n,
        duration=30.0,
        m=2,
        dt=0.1,
        seed=0,
        init_pos_range=(0.0, 10.0),
        init_vel_range=(-1.0, 1.0),
        params=InteractionParams(delta=1.0, eta=eta, alpha=2.0, beta=1.0,
                                 radius=10.0, v_max=5.0, t_vmax=1.0),
    )
    base.update(overrides)
    return SimConfig(**base)


def _build_presets() -> dict[str, ScenarioPreset]:
    presets = {}

    presets["flocking-fig2a"] = ScenarioPreset(
        name="flocking-fig2a",
        config=_fig2_config(15, 3.0),
        note="15 agents, kinetic offset 3: ordered flocking regime",
    )
    presets["vortexing-fig2b"] = ScenarioPreset(
        name="vortexing-fig2b",
        # Seed chosen so the default run settles into the rotating-ring
        # attractor within 30 s; some seeds stay in irregular transients
        # much longer.
        config=_fig2_config(5, 6.0, seed=2),
        note="5 agents, kinetic offset 6: rotation about a common center",
    )
    presets["swarming-fig2c"] = ScenarioPreset(
        name="swarming-fig2c",
        config=_fig2_config(15, 12.0),
        note="15 agents, kinetic offset 12: cohesive but disordered swarm",
    )
    presets["phase-fig5"] = ScenarioPreset(
        name="phase-fig5",
        config=_fig2_config(50, 3.0, init_pos_range=(0.0, init_upper_for(50))),
        note=(
            "representative cell of the alignment phase diagram; the "
            "attached sweep covers eta 0..33 and populations up to 100 "
            "with init boxes widened for large n (grid reconstructed, "
            "not tabulated in the source figures)"
        ),
        sweep=SweepSpec(
            etas=tuple(float(e) for e in range(34)),
            ns=(2, 3, 5, 10, 50, 100),
            seeds=1,
        ),
    )
    presets["spatial-fig7"] = ScenarioPreset(
        name="spatial-fig7",
        config=_fig2_config(
            100, 3.0, init_pos_range=(0.0, init_upper_for(100)),
        ),
        note=(
            "100 agents, spacing-offset sweep crossed with ordered "
            "(eta=3) and disordered (eta=21) regimes; delta grid "
            "0.5..2 reconstructed from the named values"
        ),
        sweep=SweepSpec(
            etas=(3.0, 21.0),
            ns=(100,),
            deltas=(0.5, 1.0, 1.5, 2.0),
            seeds=1,
        ),
    )
    presets["cluttered-fig6"] = ScenarioPreset(
        name="cluttered-fig6",
        config=SimConfig(
            n=10,
            duration=40.0,
            m=2,
            dt=0.1,
            seed=0,
            init_pos_range=(0.0, 10.0),
            init_vel_range=(-1.0, 1.0),
            params=InteractionParams(delta=1.0, eta=0.5, alpha=2.0, beta=1.0,
                                     radius=10.0, v_max=5.0, t_vmax=1.0),
            cluttered=True,
            target=TargetSpec(position=(90.0, 90.0), kappa=0.5),
            obstacles=(
                ObstacleSpec(center=(25.0, 30.0), radius=5.0, detection=15.0, sigma_o=3.0),
                ObstacleSpec(center=(50.0, 40.0), radius=5.0, detection=15.0, sigma_o=3.0),
                ObstacleSpec(center=(90.0, 80.0), radius=5.0, detection=15.0, sigma_o=3.0),
            ),
        ),
        note="10 agents crossing a 100x100 m field with three obstacles "
             "toward a target at (90, 90)",
    )
    presets["adaptive-fig9"] = ScenarioPreset(
        name="adaptive-fig9",
        config=SimConfig(
            n=20,
            duration=60.0,
            m=2,
            dt=0.1,
            seed=0,
            init_pos_range=(0.0, 10.0),
            init_vel_range=(-1.0, 1.0),
            params=InteractionParams(delta=2.0, eta=15.0, alpha=2.0, beta=1.0,
                                     radius=10.0, v_max=5.0, t_vmax=1.0),
            adaptive=True,
            energy=EnergyState(energy=80.0, initial=80.0, c1=0.15, c2=0.015),
            adaptation=AdaptationParams(delta_min=0.5, delta_max=2.0,
                                        eta_min=3.0, eta_max=15.0,
                                        k_delta=0.5, k_eta=0.5, e_th=40.0),
        ),
        note="20 agents spending energy; offsets decay from the swarming "
             "corner (2, 15) toward the flocking corner as energy drops "
             "past the threshold",
    )
    presets["cucker-smale-baseline"] = ScenarioPreset(
        name="cucker-smale-baseline",
        config=SimConfig(
            n=10,
            duration=30.0,
            m=2,
            dt=0.1,
            seed=0,
            init_pos_range=(0.0, 10.0),
            init_vel_range=(-1.0, 1.0),
            cucker_smale=CuckerSmaleParams(k_gain=1.0, sigma_cs=1.0, gamma=0.5),
        ),
        note="globally coupled velocity-consensus comparison law; no "
             "spacing term, so no collision floor",
    )
    return presets


_PRESETS = _build_presets()


def list_presets() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> ScenarioPreset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        ) from None


def sweep(spec: SweepSpec) -> tuple[list[SweepRow], list[str]]:
    """Run the full grid; failed cells are recorded and skipped.

    Cell order (and therefore row order) is eta-major, then n, then
    delta, then seed, independent of how cells are executed.
    """
    rows: list[SweepRow] = []
    failures: list[str] = []
    for eta in spec.etas:
        for n in spec.ns:
            for delta in spec.deltas:
                for seed in range(spec.seeds):
                    cfg = SimConfig(
                        n=n,
                        duration=spec.duration,
                        dt=spec.dt,
                        seed=seed,
                        init_pos_range=(0.0, init_upper_for(n)),
                        init_vel_range=(-1.0, 1.0),
                        params=InteractionParams(delta=delta, eta=eta),
                    )
                    try:
                        traj = run(cfg)
                    except SimulationNumericsError as exc:
                        failures.append(
                            f"eta={eta} n={n} delta={delta} seed={seed}: {exc}"
                        )
                        continue
                    final = traj.metrics[-1]
                    d_min_overall = min(s.d_min for s in traj.metrics)
                    rows.append(SweepRow(
                        eta=eta,
                        n=n,
                        seed=seed,
                        h_final=final.h,
                        r_agg_final=final.r_agg,
                        d_min_overall=d_min_overall,
                        aggregation_lost=final.r_agg > spec.breakdown_radius,
                        delta=delta,
                    ))
    return rows, failures


# ---------------------------------------------------------------------------
# Config serialization


def _params_to_dict(p: InteractionParams) -> dict:
    return {
        "delta": p.delta, "eta": p.eta, "alpha": p.alpha, "beta": p.beta,
        "radius": p.radius, "v_max": p.v_max, "t_vmax": p.t_vmax,
    }


def _dict_to_params(d: dict, where: str) -> InteractionParams:
    _check_keys(d, {"delta", "eta", "alpha", "beta", "radius", "v_max", "t_vmax"}, where)
    try:
        return InteractionParams(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_keys(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def config_to_dict(cfg: SimConfig) -> dict:
    """JSON-ready mapping; optional blocks appear only when configured."""
    doc = {
        "n": cfg.n,
        "m": cfg.m,
        "dt": cfg.dt,
        "duration": cfg.duration,
        "seed": cfg.seed,
        "init_pos_range": [list(pair) for pair in cfg.init_pos_range],
        "init_vel_range": [list(pair) for pair in cfg.init_vel_range],
        "workers": cfg.workers,
        "cluttered": cfg.cluttered,
        "adaptive": cfg.adaptive,
    }
    if isinstance(cfg.params, InteractionParams):
        doc["params"] = _params_to_dict(cfg.params)
    else:
        doc["params"] = [_params_to_dict(p) for p in cfg.params]
    if cfg.target is not None:
        doc["target"] = {"position": list(cfg.target.position), "kappa": cfg.target.kappa}
    if cfg.obstacles:
        doc["obstacles"] = [
            {"center": list(o.center), "radius": o.radius,
             "detection": o.detection, "sigma_o": o.sigma_o}
            for o in cfg.obstacles
        ]
    if cfg.energy is not None:
        doc["energy"] = {"initial": cfg.energy.initial, "c1": cfg.energy.c1,
                         "c2": cfg.energy.c2}
    if cfg.adaptation is not None:
        a = cfg.adaptation
        doc["adaptation"] = {
            "delta_min": a.delta_min, "delta_max": a.delta_max,
            "eta_min": a.eta_min, "eta_max": a.eta_max,
            "k_delta": a.k_delta, "k_eta": a.k_eta, "e_th": a.e_th,
        }
    if cfg.cucker_smale is not None:
        c = cfg.cucker_smale
        doc["cucker_smale"] = {"k_gain": c.k_gain, "sigma_cs": c.sigma_cs,
                               "gamma": c.gamma}
    return doc


_TOP_KEYS = {
    "n", "m", "dt", "duration", "seed", "init_pos_range", "init_vel_range",
    "workers", "cluttered", "adaptive", "params", "target", "obstacles",
    "energy", "adaptation", "cucker_smale",
}


def config_from_dict(doc: dict) -> SimConfig:
    """Inverse of config_to_dict; unknown keys anywhere are errors."""
    _check_keys(doc, _TOP_KEYS, "config")
    # Scalars pass through unconverted: SimConfig refuses non-integral
    # counts, non-finite floats and non-boolean flags instead of coercing.
    kwargs = {key: doc[key] for key in (
        "n", "m", "seed", "workers", "dt", "duration", "init_pos_range",
        "init_vel_range", "cluttered", "adaptive") if key in doc}
    if "params" in doc:
        p = doc["params"]
        if isinstance(p, list):
            kwargs["params"] = tuple(
                _dict_to_params(b, f"params[{k}]") for k, b in enumerate(p)
            )
        else:
            kwargs["params"] = _dict_to_params(p, "params")
    if "target" in doc and doc["target"] is not None:
        t = doc["target"]
        _check_keys(t, {"position", "kappa"}, "target")
        try:
            kwargs["target"] = TargetSpec(position=tuple(t["position"]),
                                          kappa=float(t.get("kappa", 0.5)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"target: {exc}") from exc
    if "obstacles" in doc:
        obs = []
        for k, o in enumerate(doc["obstacles"]):
            _check_keys(o, {"center", "radius", "detection", "sigma_o"}, f"obstacles[{k}]")
            try:
                obs.append(ObstacleSpec(
                    center=tuple(o["center"]), radius=float(o["radius"]),
                    detection=float(o["detection"]),
                    sigma_o=float(o.get("sigma_o", 3.0)),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"obstacles[{k}]: {exc}") from exc
        kwargs["obstacles"] = tuple(obs)
    if "energy" in doc and doc["energy"] is not None:
        e = doc["energy"]
        _check_keys(e, {"initial", "c1", "c2"}, "energy")
        try:
            kwargs["energy"] = EnergyState(
                energy=float(e["initial"]), initial=float(e["initial"]),
                c1=float(e.get("c1", 0.15)), c2=float(e.get("c2", 0.015)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"energy: {exc}") from exc
    if "adaptation" in doc and doc["adaptation"] is not None:
        a = doc["adaptation"]
        _check_keys(a, {"delta_min", "delta_max", "eta_min", "eta_max",
                        "k_delta", "k_eta", "e_th"}, "adaptation")
        try:
            kwargs["adaptation"] = AdaptationParams(**{k: float(v) for k, v in a.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"adaptation: {exc}") from exc
    if "cucker_smale" in doc and doc["cucker_smale"] is not None:
        c = doc["cucker_smale"]
        _check_keys(c, {"k_gain", "sigma_cs", "gamma"}, "cucker_smale")
        try:
            kwargs["cucker_smale"] = CuckerSmaleParams(**{k: float(v) for k, v in c.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cucker_smale: {exc}") from exc
    try:
        return SimConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def save_config(cfg: SimConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def load_config(path) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def sweep_spec_from_dict(doc: dict) -> SweepSpec:
    _check_keys(doc, {"etas", "ns", "deltas", "seeds", "duration", "dt",
                      "breakdown_radius"}, "sweep spec")
    try:
        return SweepSpec(
            etas=tuple(doc["etas"]),
            ns=tuple(doc["ns"]),
            deltas=tuple(doc.get("deltas", (1.0,))),
            seeds=doc.get("seeds", 1),
            duration=doc.get("duration", 30.0),
            dt=doc.get("dt", 0.1),
            breakdown_radius=doc.get("breakdown_radius", 100.0),
        )
    except KeyError as exc:
        raise ConfigError(f"sweep spec: missing key {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"sweep spec: {exc}") from exc


def load_sweep_spec(path) -> SweepSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return sweep_spec_from_dict(doc)


# ---------------------------------------------------------------------------
# Export


def _open_csv(path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def _fmt(x) -> str:
    # str() of a Python float is the shortest round-tripping decimal form.
    return str(float(x))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per (snapshot, agent): time, id, state, adapted offsets, energy."""
    m = traj.config.m
    axes = "xyz"[:m]
    header = ["t", "agent"]
    header += [f"p{a}" for a in axes] + [f"v{a}" for a in axes]
    adaptive = traj.deltas is not None
    if adaptive:
        header += ["delta", "eta"]
    if traj.energies is not None:
        header += ["energy"]
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow(header)
        for k in range(traj.n_snapshots):
            t = traj.times[k]
            for i in range(traj.config.n):
                row = [_fmt(t), str(i)]
                row += [_fmt(x) for x in traj.positions[k, i]]
                row += [_fmt(x) for x in traj.velocities[k, i]]
                if adaptive:
                    row += [_fmt(traj.deltas[k, i]), _fmt(traj.etas[k, i])]
                if traj.energies is not None:
                    row += [_fmt(traj.energies[k, i])]
                writer.writerow(row)


def write_metrics_csv(traj: Trajectory, path) -> None:
    """One row per snapshot with the full MetricSample."""
    m = traj.config.m
    axes = "xyz"[:m]
    header = ["t", "h", "r_agg", "d_avg", "d_min"]
    header += [f"edge_pos_err_{a}" for a in axes]
    header += [f"edge_vel_err_{a}" for a in axes]
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow(header)
        for s in traj.metrics:
            row = [_fmt(s.time), _fmt(s.h), _fmt(s.r_agg), _fmt(s.d_avg), _fmt(s.d_min)]
            row += [_fmt(x) for x in s.mean_edge_pos_err]
            row += [_fmt(x) for x in s.mean_edge_vel_err]
            writer.writerow(row)


def write_sweep_csv(rows: list[SweepRow], path, include_delta: bool = False) -> None:
    """Fixed-schema sweep summary; a delta column only for delta-axis sweeps."""
    header = ["eta", "n", "seed", "h_final", "r_agg_final", "d_min_overall",
              "aggregation_lost"]
    if include_delta:
        header = ["delta"] + header
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow(header)
        for r in rows:
            row = [_fmt(r.eta), str(r.n), str(r.seed), _fmt(r.h_final),
                   _fmt(r.r_agg_final), _fmt(r.d_min_overall),
                   "true" if r.aggregation_lost else "false"]
            if include_delta:
                row = [_fmt(r.delta)] + row
            writer.writerow(row)


def export(traj: Trajectory, format: str, path) -> str:
    """Write one artifact of a finished run: trajectory, metrics, or config."""
    if format == "trajectory":
        write_trajectory_csv(traj, path)
    elif format == "metrics":
        write_metrics_csv(traj, path)
    elif format == "config":
        save_config(traj.config, path)
    else:
        raise ConfigError(
            f"unknown export format {format!r}; use trajectory, metrics, or config"
        )
    return str(path)


def export_all(traj: Trajectory, out_dir) -> dict[str, str]:
    """Write the three standard artifacts into a directory."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for fmt, fname in (("trajectory", "trajectory.csv"),
                       ("metrics", "metrics.csv"),
                       ("config", "config.json")):
        paths[fmt] = export(traj, fmt, os.path.join(out_dir, fname))
    return paths
