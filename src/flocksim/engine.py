"""Deterministic time-stepping engine.

World.params holds the per-agent gains as one table (core.AgentParams,
an (n,) column per InteractionParams field) that every stage reads.
drive() is the one stepping loop, for a run (one segment of rows) and for
lab.sweep's stacked cells (a segment each) alike: per snapshot it builds one
graph.Snapshot with graph.snapshot_of() (distances, edge list and edge terms
for World.params), hands it to its caller (run() records state and metrics
from it) and steps on it; adaptation never changes radii, so a step only
reweighs it.  A step applies, in order: adaptation of the table's delta and
eta columns (adaptive runs), force assembly (the graph layer's edge kernel,
plus target and obstacle terms in cluttered runs, or the comparison
consensus law over the distance matrix mirrored from the snapshot's), then
integrate(): acceleration rate clamp, semi-implicit Euler and velocity
saturation; and energy integration when an energy block is configured,
with a negative_energy event in the step an agent's energy drops below
zero (energy only falls, so once per agent).  Coincident-pair events come
from the snapshot's edge flags, and no edge joins two segments, so each
segment steps as its own run would.  Each stage reproduces the per-agent
functions bit for bit.

Determinism holds for a fixed (config, seed): each agent's start comes
from its own spawned PCG64 stream (spawned_draws evaluates SeedSequence
and PCG64 for all agents at once in integer arithmetic), and each agent's
force sums its in-edges in source order.  ``workers`` is still accepted
and validated (>= 1) so existing config files load, but it selects nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as metrics_mod
from .cognition import AdaptationParams, EnergyState, apply_adaptation
from .core import (
    EPS_VEL,
    AgentParams,
    ConfigError,
    CuckerSmaleParams,
    InteractionParams,
    PairNumericsError,
    _row_norms,
    agent_params,
    as_number,
    check_fields,
    cucker_smale_acceleration,
)
from .environment import ObstacleSpec, TargetSpec, add_environment_terms
from .graph import Snapshot, _upper_pairs, interaction_accelerations, snapshot_of


class SimulationNumericsError(RuntimeError):
    """A step produced a non-finite state; ``agents`` lists every agent
    found non-finite, ascending, and the message names the first."""

    def __init__(self, step_index: int, *agents: int):
        self.step_index = step_index
        self.agent, self.agents = agents[0], agents
        super().__init__(f"non-finite state at step {step_index} for agent {self.agent}")


def _normalize_ranges(value, m: int, name: str) -> tuple[tuple[float, float], ...]:
    """Accept (lo, hi) or one (lo, hi) pair per axis of as_number bounds; validate ordering."""
    def seq(x):
        return isinstance(x, (list, tuple, range, np.ndarray)) and getattr(x, "ndim", 1) > 0

    def pair(x):
        return seq(x) and len(x) == 2 and not any(map(seq, x))
    rows = (value,) * m if pair(value) else value
    if not (seq(rows) and len(rows) == m and all(map(pair, rows))):
        raise ConfigError(f"{name}: expected (lo, hi) or {m} per-axis pairs")
    ranges = tuple((as_number(lo, name), as_number(hi, name)) for lo, hi in rows)
    if not all(math.isfinite(hi - lo) for lo, hi in ranges):  # NaN/inf bound or width
        raise ConfigError(f"{name}: bounds and their width hi - lo must be finite")
    if any(lo > hi for lo, hi in ranges):
        raise ConfigError(f"{name}: ranges must satisfy lo <= hi")
    return ranges


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
        check_fields(self)
        if self.n < 2:
            raise ConfigError("need at least two agents")
        if self.m not in (2, 3):
            raise ConfigError("dimension must be 2 or 3")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.duration < self.dt:
            raise ConfigError("duration must cover at least one step")
        if not math.isfinite(self.duration / self.dt):
            raise ConfigError("duration / dt must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for name in ("init_pos_range", "init_vel_range"):
            object.__setattr__(self, name, _normalize_ranges(getattr(self, name), self.m, name))
        if isinstance(self.params, tuple) and len(self.params) != self.n:
            raise ConfigError(f"params: need {self.n} InteractionParams blocks, "
                              f"got {len(self.params)}")
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
    params: AgentParams
    energies: np.ndarray | None
    time: float = 0.0
    step_index: int = 0
    events: list[Event] = field(default_factory=list)


# NumPy's SeedSequence hash constants (uint32) and PCG64's 128-bit multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hash(v, hc: int, mult: int):
    """SeedSequence's hash of the uint32 words v (which wrap) under constant
    hc, and the next constant."""
    nxt = hc * mult & _M32
    v = (v ^ hc) * nxt & _M32
    return v ^ v >> 16, nxt


def _mix(x, y):
    x = ((_MIX_L * x & _M32) - y * _MIX_R) & _M32
    return x ^ x >> 16


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * multiplier + inc mod 2**128, on uint64 limbs;
    the product's carry into the high limb is summed from 32-bit halves."""
    a0, a1 = lo & _M32, lo >> 32
    p01, p10 = a0 * (_PCG_LO >> 32), a1 * (_PCG_LO & _M32)
    mid = (a0 * (_PCG_LO & _M32) >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * (_PCG_LO >> 32) + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_LO + inc_lo
    return carry + lo * _PCG_HI + hi * _PCG_LO + inc_hi + (new_lo < inc_lo), new_lo


def spawned_draws(seed: int, n: int, k: int) -> np.ndarray:
    """(n, k) uint64 words: row i is PCG64(SeedSequence(seed).spawn(n)[i]).random_raw(k)
    bit for bit, for all rows at once, and does not depend on n.  The steps
    follow NumPy's mix_entropy, generate_state and PCG64 seeding and output;
    only the last entropy word, the spawn key i, is an array: every child
    mixes it into the pool of SeedSequence(seed), whose w seed words took
    16 + 4 * max(0, w - 4) hashes before it."""
    if n > 2**32:  # spawn keys past one uint32 word
        raise ConfigError(f"cannot seed {n} agents (at most 2**32)")
    try:
        pool = np.random.SeedSequence(seed).pool.tolist()
        words = -(-max(seed.bit_length(), 1) // 32)
        hc = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) & _M32
        key = np.arange(n, dtype=np.uint32)
        for dst in range(4):
            v, hc = _hash(key, hc, _MULT_A)
            pool[dst] = _mix(pool[dst], v)
        hc, state = _INIT_B, []
        for j in range(8):
            v, hc = _hash(pool[j % 4], hc, _MULT_B)
            state.append(v)
        state = np.array(state, dtype=np.uint64)
        s_hi, s_lo, q_hi, q_lo = state[0::2] | state[1::2] << 32
        # inc = 2 * initseq + 1; the state starts at inc + initstate, stepped once.
        inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
        lo = inc_lo + s_lo
        hi = inc_hi + s_hi + (lo < s_lo)
        out = np.empty((n, k), dtype=np.uint64)
        for j in range(k + 1):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            if j:  # XSL-RR output of the stepped state
                x, rot = hi ^ lo, hi >> 58
                out[:, j - 1] = x >> rot | x << (-rot & 63)
        return out
    except MemoryError as exc:
        raise ConfigError(f"cannot seed {n} agents: {exc}") from exc


def initialize(config: SimConfig, draws: np.ndarray | None = None) -> World:
    """Seeded initial world; per-agent spawned streams, position then velocity.

    Each row is Generator(PCG64(stream)).uniform(lo, hi) bit for bit, as
    NumPy computes it: lo + (hi - lo) * u, u = (raw >> 11) * 2**-53 per raw
    draw, with the raw words from spawned_draws.  ``draws`` may pass
    spawned_draws(config.seed, N, 2 * m) for any N >= n; its first n rows
    are used.  ConfigError if the world cannot be allocated.
    """
    m, n = config.m, config.n
    raw = spawned_draws(config.seed, n, 2 * m) if draws is None else draws[:n]
    try:
        lo, hi = np.array(config.init_pos_range + config.init_vel_range).T
        state = lo + (hi - lo) * ((raw >> 11) * 2.0**-53)
        positions, velocities = state[:, :m].copy(), state[:, m:].copy()
        params = agent_params(config.params, n)
    except MemoryError as exc:
        raise ConfigError(f"cannot initialize {n} agents: {exc}") from exc
    energies = None
    if config.energy is not None:
        energies = np.full(n, config.energy.initial)
    return World(config=config, positions=positions, velocities=velocities,
                 params=params, energies=energies)


def _forces(world: World, snap: Snapshot) -> np.ndarray:
    cfg = world.config
    cs = cfg.cucker_smale
    if cs is not None:
        # Row i sums over j in index order, as cucker_smale_acceleration(i) does.
        v, (rows, cols) = world.velocities, _upper_pairs((len(world.velocities),))
        dist = np.zeros((len(v), len(v)))
        dist[rows, cols] = dist[cols, rows] = snap.distances
        w = cs.k_gain / (cs.sigma_cs**2 + dist) ** cs.gamma
        acc = (w[:, :, None] * (v[None] - v[:, None])).sum(axis=1)
        bad = ~np.isfinite(acc).all(axis=1)
        if bad.any():  # the per-agent law names the pair
            cucker_smale_acceleration(int(np.argmax(bad)), world.positions, v, cs)
        return acc
    acc = interaction_accelerations(snap)
    if cfg.cluttered:
        acc = add_environment_terms(acc, world.positions, cfg.target, cfg.obstacles)
    return acc


def integrate(positions: np.ndarray, velocities: np.ndarray, acc: np.ndarray,
              params: AgentParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Post-force stage of step(): clamp ``acc`` in place to each agent's
    rate limit, then semi-implicit Euler and the speed cap; returns the new
    (positions, velocities).  Rows are independent of each other, so each
    stacked sweep cell integrates as its own run would."""
    limit = params.v_max / params.t_vmax
    norm = _row_norms(acc)
    over = (norm > limit).nonzero()[0]
    if over.size:
        acc[over] = (limit.take(over) / norm.take(over))[:, None] * acc.take(over, axis=0)

    velocities = velocities + acc * dt
    positions = positions + velocities * dt
    # The smooth cap engages only above v_max: repeated sub-limit
    # application would act as drag and bleed the group's momentum.  Rows
    # are saturate_velocity's, with math.tanh (np.tanh can differ in the
    # last bit).
    speed = _row_norms(velocities)
    over = (speed > params.v_max).nonzero()[0]
    if over.size:
        s, v_max = speed.take(over), params.v_max.take(over)
        scale = v_max * np.fromiter(map(math.tanh, (s / v_max).tolist()), float, over.size) / s
        scale[s < EPS_VEL] = 1.0  # saturate_velocity returns these unchanged
        velocities[over] = scale[:, None] * velocities.take(over, axis=0)
    return positions, velocities


def step(world: World, snapshot: Snapshot | None = None) -> World:
    """Advance one dt; mutates and returns the same World.

    ``snapshot`` is graph.snapshot_of of the world's state and params, if
    the caller has it: drive() passes the one its caller saw, with a segment
    per live run or sweep cell.  A non-finite force raises
    SimulationNumericsError before integration, naming its lowest agent; a
    non-finite state raises it after the step, naming every such agent.
    """
    cfg = world.config
    snap = (snapshot_of(world.positions, world.velocities, world.params)
            if snapshot is None else snapshot)

    if cfg.adaptive:
        world.params = apply_adaptation(world.positions, world.energies, world.params,
                                        cfg.adaptation, g=snap.graph)
        snap = snap.reweighted(world.params)

    # One event per pair with a coincident edge, (lower, higher) ascending.
    e = (~snap.pos_valid).nonzero()[0]
    edges = zip(snap.graph.sources.take(e).tolist(), snap.graph.receivers.take(e).tolist())
    for pair in sorted({tuple(sorted(edge)) for edge in edges}):
        world.events.append(Event(
            step=world.step_index + 1, time=world.time, kind="coincident_pair",
            agents=pair, detail="separation impulse applied",
        ))

    try:
        acc = _forces(world, snap)
    except PairNumericsError as exc:
        raise SimulationNumericsError(world.step_index + 1, exc.i) from exc
    world.positions, world.velocities = integrate(
        world.positions, world.velocities, acc, world.params, cfg.dt)

    if world.energies is not None:
        e = world.config.energy
        # energy_derivative per agent: -c1 * ||a||^2 - c2 < 0 (EnergyState has c2 > 0), so an
        # energy crosses zero at most once, and the step that crosses it warns.
        charged = world.energies >= 0
        world.energies += cfg.dt * (-e.c1 * np.vecdot(acc, acc) - e.c2)
        for i in np.flatnonzero(charged & (world.energies < 0)).tolist():
            world.events.append(Event(
                step=world.step_index + 1, time=world.time + cfg.dt,
                kind="negative_energy", agents=(i,),
                detail=f"energy {world.energies[i]:.3f}",
            ))

    world.time += cfg.dt
    world.step_index += 1

    if not (np.isfinite(world.positions).all() and np.isfinite(world.velocities).all()):
        finite = np.isfinite(world.positions).all(axis=1) & np.isfinite(world.velocities).all(axis=1)
        raise SimulationNumericsError(world.step_index, *np.flatnonzero(~finite).tolist())
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


def empty_trajectory(config: SimConfig) -> Trajectory:
    """The Trajectory that run(config) fills: unset arrays for its n_steps + 1
    snapshots, no metrics, no events.  ConfigError if they cannot be
    allocated; flocksim validate calls it too, so both refuse alike."""
    s, n, m = config.n_steps + 1, config.n, config.m
    try:
        return Trajectory(
            config=config, times=np.empty(s), positions=np.empty((s, n, m)),
            velocities=np.empty((s, n, m)),
            deltas=np.empty((s, n)) if config.adaptive else None,
            etas=np.empty((s, n)) if config.adaptive else None,
            energies=np.empty((s, n)) if config.energy is not None else None,
            metrics=[], events=[])
    except (MemoryError, ValueError) as exc:
        count = f"{s:.3e}" if s > 10**15 else s  # not every digit of a count up to 1e308
        raise ConfigError(f"cannot record {count} snapshots x {n} agents: {exc}") from exc


def drive(world: World, sizes, visit) -> dict[int, SimulationNumericsError]:
    """Step ``world`` to its config's n_steps: the one stepping loop.  Its rows
    split into segments of ``sizes`` consecutive rows, a run being one and
    each stacked lab.sweep cell one (the Cucker-Smale law spans all rows, so
    its runs stay one segment).  At each snapshot visit(snapshot, live) sees
    snapshot_of the world with the live segments' sizes and ``live``, their
    ids (indices into ``sizes``) in row order, an array replaced only when
    one fails; then step() advances the world on that snapshot.  A
    SimulationNumericsError fails each segment owning one of its agents: its
    rows, params and energies leave the world (config n follows the row
    count), and the others go on; after a force failure the same state is
    snapshot and visited again without them, and the step retried.  Returns
    {id: error} per failed segment: the step error's index, cause and
    traceback, naming the segment's agents numbered within it."""
    live, sizes = np.arange(len(sizes)), np.asarray(sizes)
    failed = {}
    while live.size:
        snap = snapshot_of(world.positions, world.velocities, world.params,
                           sizes=tuple(sizes.tolist()))
        visit(snap, live)
        if world.step_index == world.config.n_steps:
            break
        try:
            step(world, snap)
        except SimulationNumericsError as exc:
            starts, agents = np.cumsum(sizes) - sizes, np.array(exc.agents)
            owner = np.searchsorted(starts, agents, side="right") - 1
            for k in np.unique(owner).tolist():
                own = (agents[owner == k] - starts[k]).tolist()
                err = SimulationNumericsError(exc.step_index, *own)
                err.__cause__, err.__traceback__ = exc.__cause__, exc.__traceback__
                failed[int(live[k])] = err
            keep = np.bincount(owner, minlength=live.size) == 0
            rows = np.repeat(keep, sizes)
            live, sizes = live[keep], sizes[keep]
            world.positions, world.velocities = world.positions[rows], world.velocities[rows]
            world.params = AgentParams(*(col[rows] for col in world.params))
            if world.energies is not None:
                world.energies = world.energies[rows]
            if live.size:
                world.config = replace(world.config, n=int(sizes.sum()))
    return failed


def run(config: SimConfig) -> Trajectory:
    """Execute n_steps steps, recording state and metrics at every snapshot:
    drive() of one segment, raising its error if it fails."""
    traj = empty_trajectory(config)  # first: it refuses what validate refuses, before any seeding
    world = initialize(config)

    def record(snap: Snapshot, live):
        k = world.step_index
        traj.times[k] = world.time
        traj.positions[k] = world.positions
        traj.velocities[k] = world.velocities
        if config.adaptive:
            traj.deltas[k] = world.params.delta
            traj.etas[k] = world.params.eta
        if traj.energies is not None:
            traj.energies[k] = world.energies
        traj.metrics.append(metrics_mod.sample_metrics(
            world.time, world.positions, world.velocities, world.params, snap))

    failed = drive(world, (config.n,), record)
    if failed:
        raise failed[0]
    traj.events = world.events
    return traj
