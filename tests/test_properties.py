"""Properties: each fast path against the per-agent oracle it reproduces, on
the states of strategies.py, byte for byte.  Derandomized: a failing example
is printed and reproduces on every run.
"""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

import strategies
from flocksim import (EPS_POS, EPS_VEL, DegeneratePairError, InteractionParams,
                      OracleInapplicableError, PairNumericsError, SimConfig, adaptive_delta,
                      adaptive_eta, adaptive_threshold, apply_adaptation, build_graph,
                      edge_errors, extended_acceleration, global_rhs, has_spanning_tree,
                      initialize, interaction_acceleration, offset_vectors, rate_limit,
                      saturate_velocity, sweep)
from flocksim.cli import EXIT_CONFIG, EXIT_OK, main
from flocksim.core import agent_params, all_neighborhoods
from flocksim.engine import integrate, spawned_draws
from flocksim.environment import add_environment_terms
from flocksim.graph import interaction_accelerations, snapshot_of
from flocksim.lab import (config_from_dict, config_to_dict, write_metrics_csv, write_sweep_csv,
                          write_trajectory_csv)
from strategies import fixed


def _neighborhoods(state):
    return all_neighborhoods(state.positions, [p.radius for p in state.params])


def _per_agent(state, nbrs):
    """core.interaction_acceleration of every agent, (n, m), or the (i, j) of
    the first PairNumericsError."""
    pos, vel, params = state
    rows = []
    for i, p in enumerate(params):
        try:
            rows.append(interaction_acceleration(i, pos, vel, p, nbrs=nbrs[i]))
        except PairNumericsError as exc:
            return exc.i, exc.j
    return np.array(rows)


def _first_degenerate(state, nbrs):
    """(j, i, kind) of the first edge j -> i, by (receiver, source), inside
    the position guard band, else of the first inside the velocity band."""
    for x, eps, kind in ((state.positions, EPS_POS, "position"),
                         (state.velocities, EPS_VEL, "velocity")):
        for i, nb in enumerate(nbrs):
            members = list(nb.members)
            near = np.linalg.norm(x[members] - x[i], axis=1) < eps
            if near.any():
                return members[int(np.argmax(near))], i, kind


@fixed(80)
@given(strategies.states(max_n=24))
def test_kernel_and_global_rhs_equal_per_agent_law(state):
    pos, vel, params = state
    nbrs = _neighborhoods(state)
    with np.errstate(all="ignore"):
        want = _per_agent(state, nbrs)
        calls = (lambda: interaction_accelerations(snapshot_of(pos, vel, params)),
                 lambda: global_rhs(pos, vel, params).reshape(pos.shape))
        degenerate = _first_degenerate(state, nbrs)
        for k, call in enumerate(calls):
            if k and degenerate:  # the matrix form has no guard branch
                with pytest.raises(OracleInapplicableError) as exc:
                    call()
                assert (exc.value.j, exc.value.i, exc.value.kind) == degenerate
            elif isinstance(want, tuple):
                with pytest.raises(PairNumericsError) as exc:
                    call()
                assert (exc.value.i, exc.value.j) == want
            else:
                assert call().tobytes() == want.tobytes()


@fixed(30)
@given(strategies.cells())
def test_build_graph_dense_and_stacked_equal_neighborhoods(cells):
    # Each cell's own graph, then the cells stacked with one segment each:
    # edges, pdist's distances and the force kernel, cell by cell.
    edges, accelerations, distances, lo = [], [], [], 0
    for c in cells:
        radii = [p.radius for p in c.params]
        nbrs = all_neighborhoods(c.positions, radii if len(set(radii)) > 1 else radii[0])
        own = [(j, i) for i, nb in enumerate(nbrs) for j in nb.members]
        g = build_graph(c.positions, c.params)
        assert g.sources.dtype == g.receivers.dtype == np.intp and list(g.edges) == own
        edges += [(j + lo, i + lo) for j, i in own]
        accelerations.append(_per_agent(c, nbrs))
        distances.append(pdist(c.positions))
        lo += len(c.positions)
    pos, vel = (np.concatenate([c[k] for c in cells]) for k in (0, 1))
    params = [p for c in cells for p in c.params]
    sizes = tuple(len(c.positions) for c in cells)
    assert list(build_graph(pos, params, sizes=sizes).edges) == edges
    snap = snapshot_of(pos, vel, params, sizes=sizes)
    assert list(snap.graph.edges) == edges
    assert snap.distances.tobytes() == np.concatenate(distances).tobytes()
    assert interaction_accelerations(snap).tobytes() == np.concatenate(accelerations).tobytes()


@fixed(60)
@given(strategies.states(max_n=150).map(lambda s: [s]) | strategies.cells())
def test_snapshot_edges_equal_the_distance_mask(cells):
    # One condensed pass over one state of up to 150 agents, or over stacked
    # cells with one segment each: the edges of each cell's dense mask, offset
    # by the cell's first row, and none across cells, with per-agent radii,
    # exact-radius pairs and coincident agents; each edge's length is cdist's,
    # and the snapshot's distances are each cell's pdist.
    sources, receivers, lengths, lo = [], [], [], 0
    for pos, _, params in cells:
        src, rcv = strategies.mask_edges(pos, [p.radius for p in params])
        sources.append(src + lo)
        receivers.append(rcv + lo)
        lengths.append(cdist(pos, pos)[rcv, src])
        lo += len(pos)
    sizes = tuple(len(c.positions) for c in cells)
    pos, vel = (np.concatenate([c[k] for c in cells]) for k in (0, 1))
    with np.errstate(all="ignore"):
        snap = snapshot_of(pos, vel, [p for c in cells for p in c.params], sizes=sizes)
    cell = np.repeat(np.arange(len(cells)), sizes)
    assert np.array_equal(cell[snap.graph.sources], cell[snap.graph.receivers])
    assert np.array_equal(snap.graph.sources, np.concatenate(sources))
    assert np.array_equal(snap.graph.receivers, np.concatenate(receivers))
    assert snap.dp_norm.tobytes() == np.concatenate(lengths).tobytes()
    assert snap.distances.tobytes() == np.concatenate([pdist(c.positions) for c in cells]).tobytes()


def _apart(x, i, j):
    """x with row j moved off row i on the first axis: offset_vectors then
    passes that guard band and computes the pair's other offset."""
    y = x.copy()
    y[j, 0] = x[i, 0] + 1.0 + abs(x[i, 0])
    return y


@fixed(60)
@given(strategies.states())
def test_edge_errors_equal_offset_residuals(state):
    _check_edge_errors(state, _neighborhoods(state))


def _check_edge_errors(state, nbrs):
    """edge_errors of ``state`` against offset_vectors residuals, edge by edge."""
    pos, vel, params = state
    n, m = pos.shape
    edges = [(j, i) for i, nb in enumerate(nbrs) for j in nb.members]
    with np.errstate(all="ignore"):
        err = edge_errors(pos, vel, params)
        assert list(zip(err.sources.tolist(), err.receivers.tolist())) == edges
        for k, (rows, valid, mean) in enumerate(((err.pos, err.pos_valid, err.agent_mean_pos),
                                                (err.vel, err.vel_valid, err.agent_mean_vel))):
            x, total, count = state[k], np.zeros((n, m)), np.zeros(n)
            for e, (j, i) in enumerate(edges):
                moved = [pos, vel]
                moved[1 - k] = _apart(moved[1 - k], i, j)
                try:
                    offset = offset_vectors(i, j, *moved, params[i], nbrs[i])[k]
                except DegeneratePairError:  # a guard row: flagged, and +0.0, never -0.0
                    assert not valid[e] and rows[e].tobytes() == bytes(8 * m)
                    continue
                d = x[j] - x[i]
                assert valid[e] and rows[e].tobytes() == (d - offset).tobytes()
                total[i] += d - offset
                count[i] += 1
            has = count > 0
            assert np.isnan(mean[~has]).all()
            assert mean[has].tobytes() == (total[has] / count[has, None]).tobytes()


def _large_state(m, plant):
    """300 agents at the large-flock density (in 3-D, a cube of the same
    expected neighbour count), one radius, a random delta/eta per agent, and
    agent 0 and its nearest neighbour made coincident, of equal velocity, or
    left as drawn."""
    rng = np.random.default_rng(m)
    pos = rng.uniform(0.0, 75.0 if m == 2 else 42.17, (300, m))
    vel = rng.uniform(-1.0, 1.0, (300, m))
    params = [InteractionParams(delta=d, eta=e, radius=10.0) for d, e in
              zip(rng.uniform(0.5, 2.0, 300).tolist(), rng.uniform(3.0, 15.0, 300).tolist())]
    j = int(np.argsort(np.linalg.norm(pos - pos[0], axis=1))[1])
    if plant == "coincident":
        pos[j] = pos[0]
    elif plant == "equal-velocity":
        vel[j] = vel[0]
    return strategies.State(pos, vel, params), j


@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize("plant", ("coincident", "equal-velocity", "regular"))
def test_kernel_and_edge_errors_at_thousands_of_edges(plant, m):
    # One planted guard pair, or every edge regular, at the edge counts of a
    # large run.
    state, j = _large_state(m, plant)
    snap = snapshot_of(*state)
    assert snap.graph.n_edges > 2500
    pair = {(0, j), (j, 0)}
    for valid, kind in ((snap.pos_valid, "coincident"), (snap.vel_valid, "equal-velocity")):
        g = snap.graph
        flagged = set(zip(g.sources[~valid].tolist(), g.receivers[~valid].tolist()))
        assert flagged == (pair if plant == kind else set())
    nbrs = _neighborhoods(state)
    assert interaction_accelerations(snap).tobytes() == _per_agent(state, nbrs).tobytes()
    _check_edge_errors(state, nbrs)


@fixed(60)
@given(strategies.scenes())
def test_environment_terms_equal_extended_acceleration(scene):
    state, target, obstacles = scene
    pos, vel, params = state
    nbrs = _neighborhoods(state)
    want = np.array([extended_acceleration(i, pos, vel, p, target, obstacles, nbrs=nbrs[i])
                     for i, p in enumerate(params)])
    got = add_environment_terms(_per_agent(state, nbrs), pos, target, obstacles)
    assert got.tobytes() == want.tobytes()


@fixed(80)
@given(strategies.motions())
def test_integrate_equals_rate_limit_euler_and_speed_cap(motion):
    pos, vel, acc, v_max, t_vmax, dt = motion
    blocks = [InteractionParams(v_max=v, t_vmax=t)
              for v, t in zip(v_max.tolist(), t_vmax.tolist())]
    with np.errstate(all="ignore"):
        new_vel = vel + np.array([rate_limit(a, p.v_max / p.t_vmax)
                                  for a, p in zip(acc, blocks)]) * dt
        new_pos = pos + new_vel * dt
        for i, p in enumerate(blocks):
            if float(np.linalg.norm(new_vel[i])) > p.v_max:
                new_vel[i] = saturate_velocity(new_vel[i], p.v_max)
        got = integrate(pos, vel, acc.copy(), agent_params(blocks, len(blocks)), dt)
    assert got[0].tobytes() == new_pos.tobytes() and got[1].tobytes() == new_vel.tobytes()


@fixed(60)
@given(strategies.adaptations())
def test_apply_adaptation_equals_scalar_laws(case):
    state, energies, a = case
    with np.errstate(all="ignore"):
        got = apply_adaptation(state.positions, energies, state.params, a)
        thresholds = [adaptive_threshold(energies, nb, a.e_th) for nb in _neighborhoods(state)]
        pairs = list(zip(energies.tolist(), thresholds))
        want = agent_params(state.params, len(energies))._replace(
            delta=np.array([adaptive_delta(e, t, a) for e, t in pairs]),
            eta=np.array([adaptive_eta(e, t, a) for e, t in pairs]))
    assert np.array(got).tobytes() == np.array(want).tobytes()


@fixed(150)
@given(strategies.digraphs())
def test_has_spanning_tree_equals_laplacian_rank(g):
    assert has_spanning_tree(g) == strategies.rooted_by_laplacian_rank(g)


@fixed(40)
@example(seed=2**32 - 1, n=3, k=4, extra=0)
@example(seed=2**32, n=2, k=6, extra=298)
@example(seed=2**128, n=5, k=4, extra=0)
@example(seed=2**256, n=1, k=2, extra=1)
@given(st.integers(0, 2**256), st.integers(1, 40), st.integers(1, 6), st.integers(0, 300))
def test_spawned_draws_equal_pcg64(seed, n, k, extra):
    # Row i is the i-th spawned child's PCG64 stream, whatever the row count.
    want = np.array([np.random.PCG64(ss).random_raw(k)
                     for ss in np.random.SeedSequence(seed).spawn(n)])
    got = spawned_draws(seed, n + extra, k)
    assert got.dtype == np.uint64 and got[:n].tobytes() == want.tobytes()


@fixed(40)
@example((SimConfig(n=3, m=3, duration=1.0, seed=2**200 + 1, init_vel_range=(-1.0, 1.0),
                    init_pos_range=[(0.0, 75.0), (-1e3, -1e-3), (-7.25, -7.25)]), 997))
@given(strategies.seedings())
def test_initialize_equals_generator_uniform(case):
    # Each agent's start is Generator(PCG64(its spawned stream)).uniform over
    # the ranges, also from the leading rows of a larger spawned draw.
    cfg, extra = case
    lo_hi = [np.array(r).T for r in (cfg.init_pos_range, cfg.init_vel_range)]
    want = np.array([[g.uniform(*lo_hi[0]), g.uniform(*lo_hi[1])] for g in map(
        np.random.Generator, map(np.random.PCG64, np.random.SeedSequence(cfg.seed).spawn(cfg.n)))])
    larger = spawned_draws(cfg.seed, cfg.n + extra, 2 * cfg.m)
    for world in (initialize(cfg), initialize(cfg, larger)):
        assert world.positions.flags.c_contiguous and world.velocities.flags.c_contiguous
        assert world.positions.tobytes() == want[:, 0].tobytes()
        assert world.velocities.tobytes() == want[:, 1].tobytes()


@fixed(8)
@given(strategies.sweep_specs)
def test_sweep_rows_equal_per_cell_runs(spec):
    with np.errstate(over="ignore", invalid="ignore"):
        got = sweep(spec)
        want = strategies.per_cell_sweep(spec)
    assert repr(got[0]) == repr(want[0]) and got[1] == want[1]


def _same_float(text: str, value: float) -> bool:
    x = float(text)
    return math.isnan(x) if math.isnan(value) else (
        x == value and math.copysign(1.0, x) == math.copysign(1.0, value))


@fixed(30)
@given(strategies.exports())
def test_csv_fields_parse_back_to_their_bits(export):
    traj, sweep_rows = export
    s, n, m = traj.positions.shape
    extra = [x for x in (traj.deltas, traj.etas, traj.energies) if x is not None]
    tables = [
        (partial(write_trajectory_csv, traj),
         [[traj.times[k], str(i), *traj.positions[k, i], *traj.velocities[k, i],
           *(x[k, i] for x in extra)] for k in range(s) for i in range(n)]),
        (partial(write_metrics_csv, traj),
         [[r.time, r.h, r.r_agg, r.d_avg, r.d_min, *r.mean_edge_pos_err, *r.mean_edge_vel_err]
          for r in traj.metrics]),
        (partial(write_sweep_csv, sweep_rows, include_delta=True),
         [[r.delta, r.eta, str(r.n), str(r.seed), r.h_final, r.r_agg_final, r.d_min_overall,
           str(r.aggregation_lost).lower()] for r in sweep_rows])]
    for writer, want in tables:
        text = io.StringIO()
        writer(text)
        got = list(csv.reader(io.StringIO(text.getvalue())))[1:]
        assert len(got) == len(want)
        for fields, values in zip(got, want):
            assert len(fields) == len(values)
            for field, value in zip(fields, values):
                assert field == value if isinstance(value, str) else _same_float(field, value)


@fixed(50)
@given(strategies.configs())
def test_config_round_trips_through_json(cfg):
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


@fixed(100)
@given(doc=strategies.documents())
def test_validate_exits_0_or_1(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "document.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(path)])
    if code == EXIT_OK:
        assert "valid" in out.getvalue() and not err.getvalue()
    else:
        assert code == EXIT_CONFIG and err.getvalue().startswith("config error: ")
