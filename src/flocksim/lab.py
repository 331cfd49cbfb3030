"""Scenario presets, parameter sweeps, and file I/O for experiments.

Configs serialize to a flat JSON document with explicit units (meters,
seconds, m/s); unknown keys are rejected so typos fail fast instead of
silently running a different experiment.  All exports are plain CSV
(UTF-8, LF, header row) with full round-trip float precision.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product

import numpy as np

from .cognition import AdaptationParams, EnergyState
from .core import (AgentParams, CuckerSmaleParams, InteractionParams, agent_params, check_fields,
                   schema)
from .engine import (ConfigError, SimConfig, SimulationNumericsError, Trajectory, World,
                     initialize, spawned_draws, step)
from .environment import ObstacleSpec, TargetSpec
from .graph import snapshot_of
from .metrics import aggregation_radius, alignment_score

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
        check_fields(self)
        if (not (self.etas and self.ns and self.deltas)
                or min(self.etas + self.deltas) < 0 or min(self.ns) < 2):
            raise ConfigError("sweep axes must be nonempty, with eta, delta >= 0 and n >= 2")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if self.dt <= 0 or self.duration < self.dt:
            raise ConfigError("invalid sweep duration/dt")
        if self.breakdown_radius <= 0:
            raise ConfigError("breakdown_radius must be positive")

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
    """Fully specified scenario, keyed by its name; sweep grids attach where relevant."""

    config: SimConfig
    note: str
    sweep: SweepSpec | None = None


def _fig2_config(n: int, eta: float, **overrides) -> SimConfig:
    # Everything else is a default: delta 1, alpha 2, beta 1, radius 10 m,
    # v_max 5 m/s, t_vmax 1 s; 2-D, dt 0.1 s, seed 0.
    base = dict(n=n, duration=30.0, init_pos_range=(0.0, 10.0), init_vel_range=(-1.0, 1.0),
                params=InteractionParams(eta=eta))
    return SimConfig(**{**base, **overrides})


def _build_presets() -> dict[str, ScenarioPreset]:
    presets = {}

    presets["flocking-fig2a"] = ScenarioPreset(
        config=_fig2_config(15, 3.0),
        note="15 agents, kinetic offset 3: ordered flocking regime",
    )
    presets["vortexing-fig2b"] = ScenarioPreset(
        # Seed chosen so the default run settles into the rotating-ring
        # attractor within 30 s; some seeds stay in irregular transients
        # much longer.
        config=_fig2_config(5, 6.0, seed=2),
        note="5 agents, kinetic offset 6: rotation about a common center",
    )
    presets["swarming-fig2c"] = ScenarioPreset(
        config=_fig2_config(15, 12.0),
        note="15 agents, kinetic offset 12: cohesive but disordered swarm",
    )
    presets["phase-fig5"] = ScenarioPreset(
        config=_fig2_config(50, 3.0, init_pos_range=(0.0, init_upper_for(50))),
        note=(
            "representative cell of the alignment phase diagram; the "
            "attached sweep covers eta 0..33 and populations up to 100 "
            "with init boxes widened for large n (grid reconstructed, "
            "not tabulated in the source figures)"
        ),
        sweep=SweepSpec(etas=tuple(float(e) for e in range(34)), ns=(2, 3, 5, 10, 50, 100)),
    )
    presets["spatial-fig7"] = ScenarioPreset(
        config=_fig2_config(100, 3.0, init_pos_range=(0.0, init_upper_for(100))),
        note=(
            "100 agents, spacing-offset sweep crossed with ordered "
            "(eta=3) and disordered (eta=21) regimes; delta grid "
            "0.5..2 reconstructed from the named values"
        ),
        sweep=SweepSpec(etas=(3.0, 21.0), ns=(100,), deltas=(0.5, 1.0, 1.5, 2.0)),
    )
    presets["cluttered-fig6"] = ScenarioPreset(
        config=_fig2_config(
            10, 0.5, duration=40.0, cluttered=True,
            target=TargetSpec(position=(90.0, 90.0), kappa=0.5),
            obstacles=tuple(ObstacleSpec(center=c, radius=5.0, detection=15.0, sigma_o=3.0)
                            for c in ((25.0, 30.0), (50.0, 40.0), (90.0, 80.0))),
        ),
        note="10 agents crossing a 100x100 m field with three obstacles "
             "toward a target at (90, 90)",
    )
    presets["adaptive-fig9"] = ScenarioPreset(
        config=_fig2_config(
            20, 15.0, duration=60.0, params=InteractionParams(delta=2.0, eta=15.0),
            adaptive=True,
            energy=EnergyState(initial=80.0, c1=0.15, c2=0.015),
            adaptation=AdaptationParams(delta_min=0.5, delta_max=2.0, eta_min=3.0, eta_max=15.0,
                                        k_delta=0.5, k_eta=0.5, e_th=40.0),
        ),
        note="20 agents spending energy; offsets decay from the swarming "
             "corner (2, 15) toward the flocking corner as energy drops "
             "past the threshold",
    )
    presets["cucker-smale-baseline"] = ScenarioPreset(
        config=_fig2_config(10, 3.0, cucker_smale=CuckerSmaleParams(k_gain=1.0, sigma_cs=1.0,
                                                                     gamma=0.5)),
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


class _CellStack:
    """Sweep cells stacked row-wise in grid order, as one World whose
    config has the spec's dt and duration and n equal to its live row
    count: stacked cell k is grid cell ids[k] (its index in ``cells``) and
    owns rows starts[k]:starts[k] + sizes[k] of the world's positions,
    velocities and every params column.  A snapshot of the world with
    ``sizes`` as its segments (graph.build_graph) has no pair across cells,
    and cell k's n(n - 1)/2 distances start at segments[k].  Each (n, seed)
    start is initialized once (delta and eta only fill a cell's params), from
    one spawned_draws per seed at the largest n: its first n rows are the
    n-agent draw."""

    def __init__(self, cells: list[tuple], spec: SweepSpec):
        draws = [spawned_draws(seed, max(spec.ns), 4) for seed in range(spec.seeds)]
        firsts = {(n, seed): initialize(SimConfig(n, spec.duration, dt=spec.dt, seed=seed,
                                                  init_pos_range=(0.0, init_upper_for(n))),
                                        draws[seed])
                  for n, seed in product(set(spec.ns), range(spec.seeds))}
        self.ids = np.arange(len(cells))
        self.sizes = np.array([n for _, n, _, _ in cells], dtype=int)  # (eta, n, delta, seed)
        self.world = World(
            SimConfig(n=int(self.sizes.sum()), duration=spec.duration, dt=spec.dt),
            np.concatenate([firsts[n, seed].positions for _, n, _, seed in cells]),
            np.concatenate([firsts[n, seed].velocities for _, n, _, seed in cells]),
            AgentParams(*map(np.concatenate, zip(*(
                agent_params(InteractionParams(delta=delta, eta=eta), n)
                for eta, n, delta, _ in cells)))), None)
        self._index()

    def _index(self):
        self.starts = np.cumsum(self.sizes) - self.sizes
        counts = self.sizes * (self.sizes - 1) // 2
        self.segments = np.cumsum(counts) - counts

    def drop(self, exc: SimulationNumericsError, failures: dict) -> None:
        """Fail each cell owning one of the stacked rows ``exc.agents`` at its
        first such row, numbered within the cell as its own run would, and
        remove the cell's rows from the stack."""
        cells, first = np.unique(np.searchsorted(self.starts, exc.agents, side="right") - 1,
                                 return_index=True)
        for k, row in zip(cells.tolist(), np.array(exc.agents)[first].tolist()):
            failures[int(self.ids[k])] = SimulationNumericsError(
                exc.step_index, row - int(self.starts[k]))
        keep = np.ones(self.ids.shape[0], dtype=bool)
        keep[cells] = False
        kept_rows = np.repeat(keep, self.sizes)
        self.ids, self.sizes = self.ids[keep], self.sizes[keep]
        w = self.world
        w.positions, w.velocities = w.positions[kept_rows], w.velocities[kept_rows]
        w.params = AgentParams(*(col[kept_rows] for col in w.params))
        if self.ids.size:
            w.config = dataclasses.replace(w.config, n=int(self.sizes.sum()))
        self._index()


def sweep(spec: SweepSpec) -> tuple[list[SweepRow], list[str]]:
    """Run the full grid; failed cells are recorded and skipped.

    Every cell starts from engine.initialize of its n and seed (one raw
    draw per seed), with its own delta and eta; then all cells, which share
    dt and duration, advance in lockstep as one World in grid order.  Each
    snapshot is the graph.Snapshot of the stack, a segment per cell (each
    pair within a cell once; a cell's minimum pair distance reduces its
    part), and engine.step advances the stack on it as on a single run.
    Rows and failure messages are byte-identical to one engine.run per cell.
    A cell whose forces or state turn non-finite fails at that step, naming
    its own agent index, and leaves the stack; the others go on (after a
    force failure, the same step again without that cell).

    Cell order (and therefore row and failure order) is eta-major, then
    n, then delta, then seed.  ConfigError, before any cell exists, if the
    grid needs more bytes than the machine's physical memory.
    """
    # Bytes held at least: 80 per cell (its grid tuple and list slot) and 24
    # per pair i < j within a cell (two int64 pair indices, a float64 distance).
    runs = len(spec.etas) * len(spec.deltas) * spec.seeds
    need = runs * sum(80 + 12 * n * (n - 1) for n in spec.ns)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(f"cannot hold a sweep of {runs * len(spec.ns)} cells: it needs at "
                          f"least {need} bytes, the machine has {have}")
    cells = list(product(spec.etas, spec.ns, spec.deltas, range(spec.seeds)))
    stack = _CellStack(cells, spec)
    world = stack.world
    d_min = np.full(len(cells), np.inf)
    failed: dict[int, SimulationNumericsError] = {}
    while stack.ids.size:
        snap = snapshot_of(world.positions, world.velocities, world.params,
                           sizes=tuple(stack.sizes.tolist()))
        np.minimum.at(d_min, stack.ids, np.minimum.reduceat(snap.distances, stack.segments))
        if world.step_index == world.config.n_steps:
            break
        try:
            step(world, snap)
        except SimulationNumericsError as exc:
            stack.drop(exc, failed)

    start = dict(zip(stack.ids.tolist(), stack.starts.tolist()))
    rows: list[SweepRow] = []
    failures: list[str] = []
    for c, (eta, n, delta, seed) in enumerate(cells):
        if c in failed:
            failures.append(f"eta={eta} n={n} delta={delta} seed={seed}: {failed[c]}")
            continue
        lo = start[c]
        r_agg = aggregation_radius(world.positions[lo:lo + n])
        rows.append(SweepRow(
            eta=eta, n=n, seed=seed, h_final=alignment_score(world.velocities[lo:lo + n]),
            r_agg_final=r_agg, d_min_overall=float(d_min[c]),
            aggregation_lost=r_agg > spec.breakdown_radius, delta=delta))
    return rows, failures


# ---------------------------------------------------------------------------
# Config serialization


def _read_block(cls, doc, where: str = ""):
    """``cls`` built from the JSON mapping ``doc``, one key per dataclass field;
    fields with defaults may be left out, and the block checks the values.
    In a field that holds config blocks (core.schema) a mapping is read as
    that block and a list as a tuple of them; errors start "<where>: " if set.
    """
    at = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise ConfigError(f"{at}expected a mapping, got {type(doc).__name__}")
    kinds = schema(cls)
    unknown = set(doc) - set(kinds)
    if unknown:
        raise ConfigError(f"{at}unknown keys {sorted(unknown)}")
    for f in dataclasses.fields(cls):
        if f.name not in doc and f.default is dataclasses.MISSING:
            raise ConfigError(f"{at}missing key {f.name!r}")
    kwargs = dict(doc)
    for name, value in doc.items():
        block = kinds[name][1]
        if block and isinstance(value, dict):
            kwargs[name] = _read_block(block, value, name)
        elif block and isinstance(value, list):
            kwargs[name] = tuple(_read_block(block, b, f"{name}[{k}]") for k, b in enumerate(value))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{at}{exc}") from exc


# Keys of a config document, in the order they are written.
_TOP_KEYS = (
    "n", "m", "dt", "duration", "seed", "init_pos_range", "init_vel_range",
    "workers", "cluttered", "adaptive", "params", "target", "obstacles",
    "energy", "adaptation", "cucker_smale",
)


def config_to_dict(cfg: SimConfig) -> dict:
    """JSON-ready mapping; optional blocks appear only when configured."""
    full = dataclasses.asdict(cfg)
    doc = {key: full[key] for key in _TOP_KEYS if full[key] is not None and full[key] != ()}
    for key in ("params", "obstacles"):  # per-agent blocks and obstacles are lists
        if isinstance(doc.get(key), tuple):
            doc[key] = list(doc[key])
    return doc


def config_from_dict(doc: dict) -> SimConfig:
    """Inverse of config_to_dict; unknown keys anywhere are errors."""
    return _read_block(SimConfig, doc)


def save_config(cfg: SimConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an int literal past Python's digit limit
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_config(path) -> SimConfig:
    return config_from_dict(_load_json(path))


def sweep_spec_from_dict(doc: dict) -> SweepSpec:
    return _read_block(SweepSpec, doc, "sweep spec")


def load_sweep_spec(path) -> SweepSpec:
    return sweep_spec_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# Export


@contextmanager
def _csv_stream(target):
    """Text stream on a path, opened and closed here, or an open text stream,
    which stays open.  No CSV field written holds a comma, quote or line
    break, so rows are their fields joined by "," with no quoting."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target


# Cells per write; an export holds one chunk's text (2**12: ~1 MB of RSS, 2**15: ~7 MB).
_CHUNK_CELLS = 4096


def _reprs(values: np.ndarray, prefix: str = "") -> np.ndarray:
    return np.array([f"{prefix}{x!r}" for x in values.tolist()], dtype=object)


def _write_rows(path, header: list[str], lead, columns) -> None:
    """Write ``header`` and, per row r of the 2-D ``columns``, lead(r) then "," + repr(x) per
    float x: _CHUNK_CELLS cells per write and join, repr once per distinct float64 bit pattern
    of a chunk (adaptive runs repeat most delta, eta and energy values; bits keep -0.0 and 0.0
    apart); ``lead`` maps row indices to strings."""
    size = max(1, _CHUNK_CELLS // sum(c.shape[1] for c in columns))
    with _csv_stream(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, columns[0].shape[0], size):
            block = np.concatenate([c[lo:lo + size] for c in columns], axis=1, dtype=float)
            bits, inv = np.unique(block.view(np.uint64), return_inverse=True)
            cells = np.full((block.shape[0], block.shape[1] + 2), "\n", dtype=object)
            cells[:, 0] = lead(np.arange(lo, lo + block.shape[0]))
            cells[:, 1:-1] = _reprs(bits.view(np.float64), ",")[inv.reshape(block.shape)]
            fh.write("".join(cells.reshape(-1).tolist()))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per (snapshot, agent): time, id, state, adapted offsets, energy;
    repr(t) runs once per snapshot of a chunk, and the id fields once."""
    s, n, m = traj.positions.shape
    extra = [(name, x) for name, x in (("delta", traj.deltas), ("eta", traj.etas),
                                       ("energy", traj.energies)) if x is not None]
    ids = _reprs(np.arange(n), ",")

    def lead(rows):
        k = rows // n
        return _reprs(traj.times[k[0]:k[-1] + 1])[k - k[0]] + ids[rows % n]

    _write_rows(path, ["t", "agent", *(f"{q}{a}" for q in "pv" for a in "xyz"[:m]),
                       *(name for name, _ in extra)], lead,
                [traj.positions.reshape(s * n, m), traj.velocities.reshape(s * n, m),
                 *(x.reshape(s * n, 1) for _, x in extra)])


def write_metrics_csv(traj: Trajectory, path) -> None:
    """One row per snapshot with the full MetricSample."""
    header = ["t", "h", "r_agg", "d_avg", "d_min",
              *(f"edge_{q}_err_{a}" for q in ("pos", "vel") for a in "xyz"[:traj.config.m])]
    block = np.hstack([[[s.time, s.h, s.r_agg, s.d_avg, s.d_min] for s in traj.metrics],
                       [s.mean_edge_pos_err for s in traj.metrics],
                       [s.mean_edge_vel_err for s in traj.metrics]]).reshape(-1, len(header))
    _write_rows(path, header, lambda rows: _reprs(block[rows, 0]), [block[:, 1:]])


def write_sweep_csv(rows: list[SweepRow], path, include_delta: bool = False) -> None:
    """Fixed-schema sweep summary to a path or an open text stream; a delta
    column only for delta-axis sweeps."""
    header = ["eta", "n", "seed", "h_final", "r_agg_final", "d_min_overall",
              "aggregation_lost"]
    if include_delta:
        header = ["delta"] + header
    with _csv_stream(path) as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            # float() first: a row built by hand may hold NumPy floats.
            row = [repr(float(r.eta)), str(r.n), str(r.seed), repr(float(r.h_final)),
                   repr(float(r.r_agg_final)), repr(float(r.d_min_overall)),
                   "true" if r.aggregation_lost else "false"]
            if include_delta:
                row = [repr(float(r.delta))] + row
            fh.write(",".join(row) + "\n")


def export_all(traj: Trajectory, out_dir) -> dict[str, str]:
    """Write the three standard artifacts into a directory; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, name) for key, name in (
        ("trajectory", "trajectory.csv"), ("metrics", "metrics.csv"), ("config", "config.json"))}
    write_trajectory_csv(traj, paths["trajectory"])
    write_metrics_csv(traj, paths["metrics"])
    save_config(traj.config, paths["config"])
    return paths
