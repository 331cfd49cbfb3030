"""Deterministic time-stepping engine.

A step applies, in order: parameter adaptation (adaptive runs, from the
beginning-of-step snapshot), neighborhood rebuild, force assembly (plain
interaction, environment-extended, or the comparison consensus law),
acceleration rate clamp, semi-implicit Euler integration, velocity
saturation, and energy integration when an energy block is configured.

Determinism holds for a fixed (config, seed): initialization uses
per-agent spawned RNG streams, and each agent's force is an independent
sum over its own sorted neighbor list, written into a per-agent slot.
Forces are evaluated on one thread; the ``workers`` setting is still
accepted and validated (>= 1) so existing config files load, but it no
longer parallelises anything and does not change results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist

from . import metrics as metrics_mod
from .cognition import AdaptationParams, EnergyState, apply_adaptation, energy_derivative
from .core import (
    EPS_POS,
    CuckerSmaleParams,
    AgentState,
    InteractionParams,
    all_neighborhoods,
    cucker_smale_acceleration,
    interaction_acceleration,
    rate_limit,
    saturate_velocity,
)
from .environment import ObstacleSpec, TargetSpec, extended_acceleration


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class SimulationNumericsError(RuntimeError):
    """A step produced a non-finite state."""

    def __init__(self, step_index: int, agent: int):
        self.step_index = step_index
        self.agent = agent
        super().__init__(
            f"non-finite state at step {step_index} for agent {agent}"
        )


def as_number(value, name: str, integral: bool = False):
    """A finite float, or an int if ``integral``; bools, non-numbers, NaN,
    infinities and (if integral) fractions are refused, not coerced."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or integral and not float(value).is_integer()):
        kind = "an integer" if integral else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def _normalize_ranges(value, m: int, name: str) -> tuple[tuple[float, float], ...]:
    """Accept (lo, hi) or one (lo, hi) pair per axis; validate ordering."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: not numeric: {value!r}") from exc
    if arr.shape == (2,):
        arr = np.tile(arr, (m, 1))
    if arr.shape != (m, 2):
        raise ConfigError(f"{name}: expected (lo, hi) or {m} per-axis pairs")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name}: bounds must be finite")
    if np.any(arr[:, 0] > arr[:, 1]):
        raise ConfigError(f"{name}: ranges must satisfy lo <= hi")
    return tuple((float(lo), float(hi)) for lo, hi in arr)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one run; immutable and file-round-trippable."""

    n: int
    duration: float
    m: int = 2
    dt: float = 0.1
    seed: int = 0
    init_pos_range: tuple = (0.0, 10.0)
    init_vel_range: tuple = (-1.0, 1.0)
    params: InteractionParams | tuple[InteractionParams, ...] = InteractionParams()
    cluttered: bool = False
    adaptive: bool = False
    target: TargetSpec | None = None
    obstacles: tuple[ObstacleSpec, ...] = ()
    energy: EnergyState | None = None
    adaptation: AdaptationParams | None = None
    cucker_smale: CuckerSmaleParams | None = None
    workers: int = 1

    def __post_init__(self):
        for name in ("n", "m", "seed", "workers", "duration", "dt"):
            integral = name not in ("duration", "dt")
            object.__setattr__(self, name, as_number(getattr(self, name), name, integral))
        for name in ("cluttered", "adaptive"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.n < 2:
            raise ConfigError("need at least two agents")
        if self.m not in (2, 3):
            raise ConfigError("dimension must be 2 or 3")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.duration < self.dt:
            raise ConfigError("duration must cover at least one step")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        object.__setattr__(
            self, "init_pos_range",
            _normalize_ranges(self.init_pos_range, self.m, "init_pos_range"),
        )
        object.__setattr__(
            self, "init_vel_range",
            _normalize_ranges(self.init_vel_range, self.m, "init_vel_range"),
        )
        if not isinstance(self.params, InteractionParams):
            blocks = tuple(self.params)
            if len(blocks) != self.n:
                raise ConfigError(
                    f"per-agent params: expected {self.n} blocks, got {len(blocks)}"
                )
            object.__setattr__(self, "params", blocks)
        if isinstance(self.obstacles, list):
            object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.cucker_smale is not None and (self.cluttered or self.adaptive):
            raise ConfigError("cucker_smale runs exclude cluttered/adaptive modes")
        if (self.target is not None or self.obstacles) and not self.cluttered:
            raise ConfigError("target/obstacles require cluttered=True")
        if self.cluttered and self.target is None and not self.obstacles:
            raise ConfigError("cluttered=True needs a target and/or obstacles")
        if self.adaptive and (self.energy is None or self.adaptation is None):
            raise ConfigError("adaptive=True needs energy and adaptation blocks")
        if self.adaptation is not None and not self.adaptive:
            raise ConfigError("adaptation block requires adaptive=True")
        for spec in (self.target, *self.obstacles):
            if spec is not None:
                where = np.asarray(spec.position if isinstance(spec, TargetSpec) else spec.center)
                if where.shape[0] != self.m:
                    raise ConfigError("target/obstacle dimension mismatch")

    @property
    def n_steps(self) -> int:
        # Tiny slack keeps e.g. 30/0.1 from flooring to 299.
        return int(math.floor(self.duration / self.dt + 1e-9))

    def params_list(self) -> list[InteractionParams]:
        if isinstance(self.params, InteractionParams):
            return [self.params] * self.n
        return list(self.params)


@dataclass
class Event:
    """Guard firing or warning recorded during a run."""

    step: int
    time: float
    kind: str
    agents: tuple[int, ...]
    detail: str = ""


@dataclass
class World:
    """Mutable running state; step() advances it in place."""

    config: SimConfig
    positions: np.ndarray
    velocities: np.ndarray
    params: list[InteractionParams]
    energies: np.ndarray | None
    time: float = 0.0
    step_index: int = 0
    events: list[Event] = field(default_factory=list)
    _energy_warned: set = field(default_factory=set)

    def agent_state(self, i: int) -> AgentState:
        return AgentState(self.positions[i].copy(), self.velocities[i].copy())


def initialize(config: SimConfig) -> World:
    """Seeded initial world; per-agent spawned streams, position then velocity."""
    streams = np.random.SeedSequence(config.seed).spawn(config.n)
    positions = np.empty((config.n, config.m))
    velocities = np.empty((config.n, config.m))
    pos_lo = np.array([lo for lo, _ in config.init_pos_range])
    pos_hi = np.array([hi for _, hi in config.init_pos_range])
    vel_lo = np.array([lo for lo, _ in config.init_vel_range])
    vel_hi = np.array([hi for _, hi in config.init_vel_range])
    for i, ss in enumerate(streams):
        rng = np.random.Generator(np.random.PCG64(ss))
        positions[i] = rng.uniform(pos_lo, pos_hi)
        velocities[i] = rng.uniform(vel_lo, vel_hi)
    energies = None
    if config.energy is not None:
        energies = np.full(config.n, float(config.energy.energy))
    return World(
        config=config,
        positions=positions,
        velocities=velocities,
        params=config.params_list(),
        energies=energies,
    )


def _forces(world: World, nbrs) -> np.ndarray:
    cfg = world.config
    acc = np.empty((cfg.n, cfg.m))
    for i in range(cfg.n):
        if cfg.cucker_smale is not None:
            acc[i] = cucker_smale_acceleration(
                i, world.positions, world.velocities, cfg.cucker_smale
            )
        elif cfg.cluttered:
            acc[i] = extended_acceleration(
                i, world.positions, world.velocities, world.params[i],
                cfg.target, cfg.obstacles, nbrs=nbrs[i],
            )
        else:
            acc[i] = interaction_acceleration(
                i, world.positions, world.velocities, world.params[i], nbrs=nbrs[i]
            )
    return acc


def step(world: World) -> World:
    """Advance one dt; mutates and returns the same World."""
    cfg = world.config
    n = cfg.n

    # Bit for bit the np.linalg.norm of the pairwise differences, without
    # allocating the (n, n, m) difference array.
    dist = cdist(world.positions, world.positions)
    radii = np.array([p.radius for p in world.params])
    nbrs = all_neighborhoods(world.positions, radii, distances=dist)

    if cfg.adaptive:
        world.params = apply_adaptation(
            world.positions, world.energies, world.params, cfg.adaptation,
            nbrs_list=nbrs,
        )

    iu = np.triu_indices(n, k=1)
    close = dist[iu] < EPS_POS
    if close.any():
        for a, b in zip(iu[0][close].tolist(), iu[1][close].tolist()):
            world.events.append(Event(
                step=world.step_index + 1, time=world.time, kind="coincident_pair",
                agents=(a, b), detail="separation impulse applied",
            ))

    acc = _forces(world, nbrs)
    for i in range(n):
        acc[i] = rate_limit(acc[i], world.params[i].s)

    world.velocities = world.velocities + acc * cfg.dt
    world.positions = world.positions + world.velocities * cfg.dt
    # The smooth cap engages only above v_max: repeated sub-limit
    # application would act as drag and bleed the group's momentum.
    for i in range(n):
        if float(np.linalg.norm(world.velocities[i])) > world.params[i].v_max:
            world.velocities[i] = saturate_velocity(
                world.velocities[i], world.params[i].v_max
            )

    if world.energies is not None:
        e = world.config.energy
        for i in range(n):
            world.energies[i] += cfg.dt * energy_derivative(acc[i], e.c1, e.c2)
        for i in np.nonzero(world.energies < 0)[0]:
            if int(i) not in world._energy_warned:
                world._energy_warned.add(int(i))
                world.events.append(Event(
                    step=world.step_index + 1, time=world.time + cfg.dt,
                    kind="negative_energy", agents=(int(i),),
                    detail=f"energy {world.energies[i]:.3f}",
                ))

    world.time += cfg.dt
    world.step_index += 1

    finite = np.isfinite(world.positions).all(axis=1) & np.isfinite(world.velocities).all(axis=1)
    if not finite.all():
        raise SimulationNumericsError(world.step_index, int(np.nonzero(~finite)[0][0]))
    return world


@dataclass
class Trajectory:
    """Recorded run: snapshot arrays, metric series, event log."""

    config: SimConfig
    times: np.ndarray  # (S,)
    positions: np.ndarray  # (S, n, m)
    velocities: np.ndarray  # (S, n, m)
    deltas: np.ndarray | None  # (S, n) when adaptive
    etas: np.ndarray | None
    energies: np.ndarray | None  # (S, n) when an energy block is configured
    metrics: list
    events: list[Event]

    @property
    def n_snapshots(self) -> int:
        return self.times.shape[0]

    def agent_states(self, k: int) -> list[AgentState]:
        return [
            AgentState(self.positions[k, i].copy(), self.velocities[k, i].copy())
            for i in range(self.config.n)
        ]


def run(config: SimConfig) -> Trajectory:
    """Execute n_steps steps, recording state and metrics at every snapshot."""
    world = initialize(config)
    steps = config.n_steps
    n, m = config.n, config.m
    times = np.empty(steps + 1)
    positions = np.empty((steps + 1, n, m))
    velocities = np.empty((steps + 1, n, m))
    adaptive = config.adaptive
    deltas = np.empty((steps + 1, n)) if adaptive else None
    etas = np.empty((steps + 1, n)) if adaptive else None
    energies = np.empty((steps + 1, n)) if world.energies is not None else None
    samples = []

    def record(k: int):
        times[k] = world.time
        positions[k] = world.positions
        velocities[k] = world.velocities
        if adaptive:
            deltas[k] = [p.delta for p in world.params]
            etas[k] = [p.eta for p in world.params]
        if energies is not None:
            energies[k] = world.energies
        samples.append(metrics_mod.sample_metrics(
            world.time, world.positions, world.velocities, world.params
        ))

    record(0)
    for k in range(1, steps + 1):
        step(world)
        record(k)
    return Trajectory(
        config=config,
        times=times,
        positions=positions,
        velocities=velocities,
        deltas=deltas,
        etas=etas,
        energies=energies,
        metrics=samples,
        events=world.events,
    )


def rerun_with(config: SimConfig, **overrides) -> SimConfig:
    """Convenience: config with replaced fields (validated anew)."""
    return replace(config, **overrides)
