"""Hypothesis strategies for test_properties.py, and the oracles that other
test modules share with it.

The states sit in the guard bands of the interaction law by construction:
lattice and near-lattice coordinates (exact distances such as 5 = |(3, 4)|),
duplicated rows (coincident pairs, equal velocities) with offsets of either
sign up to EPS_POS/EPS_VEL, a radius set to a pair's distance, per-agent
radii, delta, eta and mixed exponents, 2-D and 3-D, and magnitudes up to
1e200.  ``fixed`` is the one set of settings: derandomized, no example
database, no deadline; each property names its max_examples.
"""

import dataclasses
import json
import math
import tempfile
from itertools import product
from typing import NamedTuple

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from flocksim import (EPS_POS, EPS_VEL, AdaptationParams, CuckerSmaleParams, EnergyState,
                      InteractionGraph, InteractionParams, MetricSample, ObstacleSpec, SimConfig,
                      SimulationNumericsError, SweepRow, SweepSpec, TargetSpec, Trajectory, run)
from flocksim.lab import config_to_dict, init_upper_for

# Hypothesis caches what it reads of the source under its home directory,
# .hypothesis/ by default; a temporary one, removed at exit, keeps test runs
# from writing into the checkout.
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

EXPONENTS = (1.0, 1.5, 2.0)
HUGE = (1e100, 1e160, 1e200)


def fixed(max_examples: int):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


class State(NamedTuple):
    positions: np.ndarray  # (n, m)
    velocities: np.ndarray  # (n, m)
    params: list  # one InteractionParams per agent


def _near(eps):
    """An offset of either sign up to eps, or exactly 0 or +-eps."""
    return st.sampled_from((0.0, eps, -eps)) | st.floats(-eps, eps)


_LATTICE = st.integers(-6, 6).map(float)
_BLOCKS = st.lists(st.builds(
    InteractionParams, delta=st.floats(0.0, 5.0), eta=st.floats(0.0, 15.0),
    alpha=st.sampled_from(EXPONENTS), beta=st.sampled_from(EXPONENTS),
    radius=st.sampled_from((1.0, 2.0, 2.5, 5.0)) | st.floats(1e-10, 12.0)), min_size=1, max_size=3)
_NEAR_POS, _NEAR_VEL = _near(EPS_POS), _near(EPS_VEL)


@st.composite
def states(draw, max_n=12, m=None, huge=True):
    """A State of 2 to max_n agents in m (2 or 3) dimensions; ``huge`` allows 1e200s."""
    n, m = draw(st.integers(2, max_n)), m or draw(st.sampled_from((2, 3)))
    pos = draw(arrays(float, (n, m), elements=_LATTICE))
    if draw(st.booleans()):
        pos += draw(arrays(float, (n, m), elements=st.floats(-0.5, 0.5)))
    vel = draw(arrays(float, (n, m), elements=st.floats(-3.0, 3.0)))
    big = huge and draw(st.booleans())
    if big:
        vel *= draw(st.sampled_from((1.0, *HUGE)))
    rows = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, m - 1))
    for x, near in ((pos, _NEAR_POS), (vel, _NEAR_VEL)):
        for dst, src, axis in draw(st.lists(rows, max_size=3)):
            x[dst] = x[src]
            x[dst, axis] += draw(near)
    # Up to three parameter blocks dealt out to the agents: per-agent radii,
    # delta, eta and exponents.
    blocks = draw(_BLOCKS)
    params = [blocks[k] for k in draw(arrays(int, n, elements=st.integers(0, len(blocks) - 1)))]
    if draw(st.booleans()):  # mixed exponents
        params[0] = dataclasses.replace(params[0], alpha=1.0, beta=2.0)
        params[-1] = dataclasses.replace(params[-1], alpha=1.5, beta=1.0)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    reach = float(np.linalg.norm(pos - pos[i], axis=1)[j])  # neighborhood's arithmetic
    if draw(st.booleans()) and reach > 0.0:
        params[i] = dataclasses.replace(params[i], radius=reach)
    if big:
        params[j] = dataclasses.replace(params[j], delta=draw(st.sampled_from(HUGE)))
    return State(pos, vel, params)


def mask_edges(positions, radii):
    """build_graph's oracle: (sources, receivers) of every edge j -> i, j != i,
    whose cdist distance lies within radii[i], read row-major off the dense
    mask, i.e. sorted by (receiver, source)."""
    within = cdist(positions, positions) <= np.asarray(radii, dtype=float)[:, None]
    np.fill_diagonal(within, False)
    receivers, sources = np.nonzero(within)
    return sources, receivers


def cell_pairs(sizes):
    """(2, P) rows i and j of every pair i < j within each of the stacked
    cells of ``sizes``, cell by cell and row by row, written as loops."""
    pairs, lo = [], 0
    for n in sizes:
        pairs += [(i, j) for i in range(lo, lo + n) for j in range(i + 1, lo + n)]
        lo += n
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy()


@st.composite
def cells(draw):
    """One to four states of one dimension and up to 12 agents, to stack."""
    m = draw(st.sampled_from((2, 3)))
    return draw(st.lists(states(max_n=12, m=m, huge=False), min_size=1, max_size=4))


@st.composite
def scenes(draw):
    """(state, target, obstacles): 0-3 obstacles on lattice points, most of
    them next to the first so that ranges overlap, and an optional target
    (kappa 0 or > 0); agents may sit on a center, exactly on a detection
    radius or inside several ranges at once."""
    state = draw(states(huge=False))
    pos = state.positions
    n, m = pos.shape
    first, obstacles = draw(arrays(float, m, elements=_LATTICE)), []
    for _ in range(draw(st.sampled_from((3, 2, 1, 0)))):
        center = first + draw(arrays(float, m, elements=st.integers(-1, 1).map(float)))
        if draw(st.booleans()):
            center = draw(arrays(float, m, elements=_LATTICE))
        detection = draw(st.sampled_from((2.5, 5.0)) | st.floats(1.0, 12.0))
        a = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            pos[a] = center
        elif draw(st.booleans()) and np.linalg.norm(center - pos[a]) > 0.0:
            detection = float(np.linalg.norm(center - pos[a]))  # detected_obstacles' arithmetic
        obstacles.append(ObstacleSpec(center=tuple(center), radius=1.0, detection=detection,
                                      sigma_o=draw(st.sampled_from((1.5, 2.0, 3.0)))))
    for a in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        pos[a] = first + draw(arrays(float, m, elements=st.floats(-0.5, 0.5)))
    target = draw(st.none() | st.builds(
        TargetSpec, position=st.lists(st.integers(-20, 20).map(float), min_size=m, max_size=m),
        kappa=st.just(0.0) | st.floats(0.01, 1.0)))
    return state, target, tuple(obstacles)


_MAGNITUDES = st.floats(-10.0, 10.0) | st.floats(-1e-9, 1e-9) | st.floats(-1e200, 1e200)


@st.composite
def motions(draw):
    """(positions, velocities, accelerations, v_max, t_vmax, dt) for
    engine.integrate: magnitudes from below EPS_VEL up to 1e200, v_max from
    1e-12 to 1e6, and rows left unaccelerated at exactly v_max."""
    n, m = draw(st.integers(1, 12)), draw(st.sampled_from((2, 3)))
    pos, vel, acc = (draw(arrays(float, (n, m), elements=_MAGNITUDES)) for _ in range(3))
    v_max = draw(arrays(float, n, elements=st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e)))
    t_vmax = draw(arrays(float, n, elements=st.floats(0.01, 100.0)))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        with np.errstate(over="ignore"):
            speed = float(np.linalg.norm(vel[i]))
        if 0.0 < speed < math.inf:
            acc[i], v_max[i] = 0.0, speed
    return pos, vel, acc, v_max, t_vmax, draw(st.sampled_from((0.1, 0.05, 1e-3)))


_BOUNDS = st.lists(st.floats(0.0, 20.0), min_size=2, max_size=2).map(sorted)


@st.composite
def adaptations(draw):
    """(state, energies, AdaptationParams): energies on and around the
    threshold, far enough from it for the sigmoid's saturated branches, and
    NaN and infinities."""
    state = draw(states(huge=False))
    (d_lo, d_hi), (e_lo, e_hi) = draw(_BOUNDS), draw(_BOUNDS)
    a = AdaptationParams(delta_min=d_lo, delta_max=d_hi, eta_min=e_lo, eta_max=e_hi,
                         k_delta=draw(st.floats(0.01, 2.0)), k_eta=draw(st.floats(0.01, 2.0)),
                         e_th=draw(st.floats(0.0, 100.0)))
    energies = draw(arrays(float, len(state.positions), elements=st.floats(-20.0, 20.0).map(
        lambda gap: a.e_th + gap) | st.just(a.e_th) | st.floats(-2000.0, 2000.0) | st.floats()))
    return state, energies, a


# Floats that repr must keep apart or print alike.
_SPECIAL = st.sampled_from((-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16,
                            1e-05, 0.1))


@st.composite
def exports(draw):
    """A trajectory with its metric rows, and sweep rows, holding any float:
    NaN, infinities, -0.0 beside 0.0 and subnormals."""
    s, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.sampled_from((2, 3)))

    def any_floats(*shape):
        return draw(arrays(float, shape, elements=_SPECIAL | st.floats()))

    adaptive = draw(st.booleans())
    times = any_floats(s)
    traj = Trajectory(
        config=SimConfig(n=2, m=m, duration=1.0), times=times, positions=any_floats(s, n, m),
        velocities=any_floats(s, n, m), deltas=any_floats(s, n) if adaptive else None,
        etas=any_floats(s, n) if adaptive else None,
        energies=any_floats(s, n) if draw(st.booleans()) else None,
        metrics=[MetricSample(t, *any_floats(4).tolist(), any_floats(m), any_floats(m))
                 for t in times.tolist()], events=[])
    number = _SPECIAL | st.floats()
    rows = draw(st.lists(st.builds(
        SweepRow, eta=number, n=st.integers(2, 100), seed=st.integers(0, 9), h_final=number,
        r_agg_final=number, d_min_overall=number, aggregation_lost=st.booleans(), delta=number),
        max_size=4))
    return traj, rows


def edge_list_graph(n: int, edges) -> InteractionGraph:
    """The graph of (source, receiver) pairs, sorted by (receiver, source)."""
    src, rcv = np.array(sorted(edges, key=lambda e: (e[1], e[0])), dtype=int).reshape(-1, 2).T
    return InteractionGraph(n, src, rcv)


def rooted_by_laplacian_rank(g) -> bool:
    """has_spanning_tree's oracle: a root reaches every agent along source ->
    receiver edges iff the in-neighbour Laplacian (L_ii = |N_i|, L_ij = -1 for
    j in N_i) has rank n - 1."""
    n = g.n_nodes
    lap = np.zeros((n, n))
    np.add.at(lap, (g.receivers, g.sources), -1.0)
    lap[np.diag_indices(n)] = g.in_degrees()
    return np.linalg.matrix_rank(lap) == n - 1


@st.composite
def digraphs(draw):
    """Any directed graph on 1 to 12 nodes, the edgeless ones included."""
    n = draw(st.integers(1, 12))
    ordered = [(j, i) for j, i in product(range(n), repeat=2) if j != i]
    return edge_list_graph(n, draw(st.sets(st.sampled_from(ordered))) if ordered else ())


def per_cell_sweep(spec):
    """lab.sweep's oracle: one engine.run per cell, rows from its MetricSamples."""
    rows, failures = [], []
    for eta, n, delta, seed in product(spec.etas, spec.ns, spec.deltas, range(spec.seeds)):
        cfg = SimConfig(n=n, duration=spec.duration, dt=spec.dt, seed=seed,
                        init_pos_range=(0.0, init_upper_for(n)), init_vel_range=(-1.0, 1.0),
                        params=InteractionParams(delta=delta, eta=eta))
        try:
            traj = run(cfg)
        except SimulationNumericsError as exc:
            failures.append(f"eta={eta} n={n} delta={delta} seed={seed}: {exc}")
            continue
        final = traj.metrics[-1]
        rows.append(SweepRow(
            eta=eta, n=n, seed=seed, h_final=final.h, r_agg_final=final.r_agg,
            d_min_overall=min(s.d_min for s in traj.metrics),
            aggregation_lost=final.r_agg > spec.breakdown_radius, delta=delta))
    return rows, failures


def _axis_list(values, size):
    return st.lists(values, min_size=1, max_size=size).map(tuple)


sweep_specs = st.builds(
    SweepSpec, etas=_axis_list(st.floats(0.0, 33.0), 2), ns=_axis_list(st.integers(2, 6), 3),
    deltas=_axis_list(st.floats(0.2, 3.0) | st.just(1e160), 2), seeds=st.integers(1, 2),
    duration=st.sampled_from((0.2, 0.5)))

_POSITIVE = st.floats(0.01, 20.0)
_PARAMS = st.builds(InteractionParams, delta=st.floats(0.0, 5.0), eta=st.floats(0.0, 15.0),
                    alpha=st.floats(0.5, 4.0), beta=st.floats(0.5, 4.0), radius=_POSITIVE,
                    v_max=_POSITIVE, t_vmax=_POSITIVE)


# (lo, hi) bounds of either sign, lo == hi included.
_RANGE = st.tuples(st.floats(-1e3, 1e3), st.just(0.0) | st.floats(0.0, 100.0)).map(
    lambda b: (b[0], b[0] + b[1]))


@st.composite
def seedings(draw):
    """(SimConfig, extra): a seed of up to nine 32-bit words, shared or
    per-axis start ranges, and a count of extra agents to spawn."""
    m = draw(st.sampled_from((2, 3)))
    ranges = _RANGE | st.lists(_RANGE, min_size=m, max_size=m)
    return SimConfig(n=draw(st.integers(2, 40)), m=m, duration=1.0,
                     seed=draw(st.integers(0, 2**256)), init_pos_range=draw(ranges),
                     init_vel_range=draw(ranges)), draw(st.integers(0, 300))


@st.composite
def configs(draw):
    """A valid SimConfig of any mode, every block's fields drawn."""
    n, m = draw(st.integers(2, 5)), draw(st.sampled_from((2, 3)))
    point = st.lists(st.floats(-100.0, 100.0), min_size=m, max_size=m).map(tuple)
    dt = draw(st.floats(0.001, 1.0))
    mode = draw(st.sampled_from(("base", "cluttered", "adaptive", "cucker-smale")))
    cluttered = mode == "cluttered" or mode == "adaptive" and draw(st.booleans())
    kwargs = {}
    if cluttered:
        kwargs["target"] = draw(st.none() | st.builds(TargetSpec, position=point,
                                                      kappa=st.floats(0.0, 2.0)))
        kwargs["obstacles"] = draw(st.lists(st.builds(
            ObstacleSpec, center=point, radius=_POSITIVE, detection=_POSITIVE,
            sigma_o=st.floats(0.5, 5.0)), min_size=0 if kwargs["target"] else 1, max_size=3))
    if mode == "adaptive" or draw(st.booleans()) and mode != "cucker-smale":
        kwargs["energy"] = draw(st.builds(EnergyState, initial=_POSITIVE, c1=st.floats(0.0, 1.0),
                                          c2=st.floats(0.001, 1.0)))
    if mode == "adaptive":
        (d_lo, d_hi), (e_lo, e_hi) = draw(_BOUNDS), draw(_BOUNDS)
        kwargs["adaptation"] = AdaptationParams(d_lo, d_hi, e_lo, e_hi, k_delta=draw(_POSITIVE),
                                                k_eta=draw(_POSITIVE), e_th=draw(_POSITIVE))
    if mode == "cucker-smale":
        kwargs["cucker_smale"] = draw(st.builds(CuckerSmaleParams, k_gain=_POSITIVE,
                                                sigma_cs=_POSITIVE, gamma=st.floats(0.0, 3.0)))
    return SimConfig(
        n=n, m=m, dt=dt, duration=draw(st.floats(dt, 100.0)), seed=draw(st.integers(0, 2**64)),
        init_pos_range=draw(_RANGE | st.lists(_RANGE, min_size=m, max_size=m)),
        init_vel_range=draw(_RANGE), workers=draw(st.integers(1, 4)),
        params=draw(_PARAMS | st.lists(_PARAMS, min_size=n, max_size=n).map(tuple)),
        cluttered=cluttered, adaptive=mode == "adaptive", **kwargs)


# Values a config document may hold where a number, list or block belongs,
# ints beyond the float range first, as Hypothesis tries a list's first values
# most; lists and mappings are parsed anew for each draw.
_WRONG = st.sampled_from((10**400, -10**400, 2**1024, 1e308, math.nan, math.inf, -math.inf, None,
                          True, False, "3", "", 2.5, -1, 0, 1e20, 1e-300)) | st.sampled_from(
    ("[]", "{}", "[[1.0, [2.0]]]")).map(json.loads)
_KEYS = st.text("nmdtxyz_", min_size=1, max_size=4)
_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | _KEYS,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=6)


@st.composite
def documents(draw):
    """A config document: a valid config's, with up to three of its keys, or
    of a block's keys, replaced by wrong types, NaN, inf, nested lists or
    integers beyond the float range, removed, or joined by unknown keys."""
    doc = config_to_dict(draw(configs()))
    for _ in range(draw(st.sampled_from((1, 2, 3, 0)))):
        where = doc
        key = draw(st.sampled_from(list(doc)))  # n, m, dt, duration, seed, ... first
        if isinstance(doc[key], dict) and draw(st.booleans()):
            where = doc[key]
            key = draw(st.sampled_from(sorted(where) or [key]))
        action = draw(st.sampled_from(("wrong", "json", "drop", "unknown")))
        if action == "drop":
            where.pop(key, None)
        elif action == "unknown":
            where[draw(_KEYS)] = draw(_WRONG)
        else:
            where[key] = draw(_WRONG if action == "wrong" else _JSON)
    return doc
