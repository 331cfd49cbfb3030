"""Unit tests for the graph-form dynamics, edge residuals, and the
Lyapunov monitor.

The two-node configuration is small enough to check the incidence
structure, weights, and stacked operators entry by entry; the stacked
right-hand side is cross-checked against the per-agent law on seeded
random states.
"""

import logging

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from flocksim import (
    EPS_POS,
    EPS_VEL,
    InteractionGraph,
    InteractionParams,
    OracleInapplicableError,
    PairNumericsError,
    build_graph,
    edge_errors,
    edge_state,
    global_rhs,
    has_spanning_tree,
    interaction_acceleration,
    laplacian,
    lyapunov_monitor,
    lyapunov_value,
    neighborhood,
    pair_distances,
    weighted_incidence,
)
from flocksim.core import _tie_break_direction, all_neighborhoods, psi_weight
from flocksim.graph import (
    NUMPY_DISTANCE_NODES,
    _condensed,
    _distances,
    _min_sym_eigenvalue,
    _segment_sums,
    interaction_accelerations,
    snapshot_of,
    stability_matrices,
)


def _two_node_state():
    pos = np.array([[0.0, 0.0], [2.0, 0.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    return pos, vel, InteractionParams(delta=1.0, eta=3.0, alpha=2.0,
                                       beta=1.0, radius=10.0)


def _guard_free_config(rng, n, m):
    while True:
        pos = rng.uniform(0.0, 8.0, (n, m))
        vel = rng.uniform(-3.0, 3.0, (n, m))
        dd = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        dv = np.linalg.norm(vel[:, None, :] - vel[None, :, :], axis=2)
        off = ~np.eye(n, dtype=bool)
        if dd[off].min() > 1e-6 and dv[off].min() > 1e-6:
            return pos, vel


def _random_params(rng, n):
    return [
        InteractionParams(
            delta=float(rng.uniform(0.0, 5.0)),
            eta=float(rng.uniform(0.0, 5.0)),
            alpha=float(rng.choice([1.0, 2.0])),
            beta=float(rng.choice([1.0, 2.0])),
            radius=float(rng.uniform(2.0, 12.0)),
        )
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Graph construction


def test_two_node_graph_structure():
    pos, vel, p = _two_node_state()
    g = build_graph(pos, p)
    assert g.n_nodes == 2
    # Sorted by (receiver, source): receiver 0 first.
    assert g.edges == ((1, 0), (0, 1))
    np.testing.assert_array_equal(g.incidence, [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(g.sources, [1, 0])
    np.testing.assert_array_equal(g.receivers, [0, 1])
    np.testing.assert_array_equal(g.in_degrees(), [1, 1])
    np.testing.assert_array_equal(laplacian(g), [[2.0, -2.0], [-2.0, 2.0]])


def test_asymmetric_radii_graph():
    # Middle agent blind (tiny radius): only the outer agents receive.
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    params = [InteractionParams(radius=r) for r in (2.5, 0.1, 2.5)]
    g = build_graph(pos, params)
    assert g.edges == ((1, 0), (1, 2))
    np.testing.assert_array_equal(g.in_degrees(), [1, 0, 1])


def _cell_pairs(sizes):
    """Every ordered pair (source j, receiver i != j) within each cell of
    rows stacked in cells of ``sizes``, sorted by (i, j), written as loops."""
    pairs, lo = [], 0
    for n in sizes:
        pairs += [(j, i) for i in range(lo, lo + n) for j in range(lo, lo + n) if j != i]
        lo += n
    return tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy())


def test_cell_blocks_graph_is_per_cell_graphs():
    # Overlapping cells with per-agent radii, three of 7 agents then two of
    # 4: the graph over each cell's candidate pairs is each cell's own graph
    # shifted to its rows, in the same order, for the whole stack or a prefix.
    rng = np.random.default_rng(32)
    cells = [(rng.uniform(0.0, 10.0, (n, 2)), _random_params(rng, n)) for n in (7, 7, 7, 4, 4)]
    pos = np.concatenate([p for p, _ in cells])
    params = [q for _, qs in cells for q in qs]
    starts = np.cumsum([0] + [len(p) for p, _ in cells])
    expected = [(j + starts[c], i + starts[c]) for c, (p, qs) in enumerate(cells)
                for j, i in build_graph(p, qs).edges]
    g = build_graph(pos, params, pairs=_cell_pairs((7, 7, 7, 4, 4)))
    assert g.n_nodes == 29
    assert list(g.edges) == expected
    g = build_graph(pos[:21], params[:21], pairs=_cell_pairs((7, 7, 7)))
    assert list(g.edges) == [e for e in expected if e[1] < 21]


def _nonzero_form_edges(positions, radius, blocks):
    """build_graph's (sources, receivers) written with the 2-D np.nonzero
    over (C, n, n) per-cell distance blocks, one per run of equal n."""
    sources, receivers, lo = [], [], 0
    for dist in blocks:
        n = dist.shape[-1]
        mask = dist.reshape(-1, n) <= radius[lo:lo + dist.size // n, None]
        mask.reshape(-1, n * n)[:, ::n + 1] = False
        rcv, src = np.nonzero(mask)
        sources.append(src + rcv - rcv % n + lo)
        receivers.append(rcv + lo)
        lo += mask.shape[0]
    return np.concatenate(sources), np.concatenate(receivers)


def test_edge_list_equals_nonzero_form():
    # Per-agent radii on an integer lattice, where many pairs sit at exactly
    # a radius (3-4-5 triangles, unit steps): such a pair is an edge.  Then
    # stacked cells over their candidate pairs, against the nonzero form of
    # their (C, n, n) blocks, for the whole stack and for its first run.
    rng = np.random.default_rng(91)
    exact = 0
    for trial in range(30):
        n = int(rng.integers(2, 30))
        pos = rng.integers(0, 8, (n, 2)).astype(float)
        radius = rng.choice([1.0, 2.0, 5.0, 2.5], n)
        params = [InteractionParams(radius=float(r)) for r in radius]
        dist = np.linalg.norm(pos[:, None] - pos[None], axis=2)
        exact += int(np.count_nonzero(dist == radius[:, None]))
        g = build_graph(pos, params)
        src, rcv = _nonzero_form_edges(pos, radius, [dist])
        assert g.sources.tobytes() == src.tobytes() and g.receivers.tobytes() == rcv.tobytes()
        assert g.sources.dtype == src.dtype and g.receivers.dtype == rcv.dtype
    assert exact >= 50
    sizes = (6, 6, 6, 3, 3)
    cells = [rng.integers(0, 5, (n, 2)).astype(float) for n in sizes]
    radius = rng.choice([1.0, 2.0, 5.0], sum(sizes))
    params = [InteractionParams(radius=float(r)) for r in radius]
    pos = np.concatenate(cells)
    blocks = [np.array([np.linalg.norm(c[:, None] - c[None], axis=2) for c in cells
                        if len(c) == n]) for n in (6, 3)]
    for parts, run in ((blocks, sizes), (blocks[:1], sizes[:3])):
        rows = sum(run)
        g = build_graph(pos[:rows], params[:rows], pairs=_cell_pairs(run))
        src, rcv = _nonzero_form_edges(pos[:rows], radius[:rows], parts)
        assert g.sources.tobytes() == src.tobytes() and g.receivers.tobytes() == rcv.tobytes()
        assert g.sources.dtype == src.dtype and g.receivers.dtype == rcv.dtype
    # The candidates' distances given, here read from the blocks.
    pairs = _cell_pairs(sizes[:3])
    dist = blocks[0].reshape(-1, 6)[pairs[1], pairs[0] % 6]
    g = build_graph(pos[:18], params[:18], distances=dist, pairs=pairs)
    src, rcv = _nonzero_form_edges(pos[:18], radius[:18], blocks[:1])
    assert g.sources.tobytes() == src.tobytes() and g.receivers.tobytes() == rcv.tobytes()


def _stacked_cells(rng, m):
    """Cells of mixed n (2 included) stacked row-wise, with per-agent radii
    (directed edges), integer-lattice positions (pairs at exactly a radius),
    pairs below EPS_POS and equal velocities (zero relative velocity)."""
    cells = []
    for n in (2, 5, 2, 9, 5, 3, 12):
        pos = rng.integers(0, 6, (n, m)).astype(float)
        vel = rng.uniform(-2.0, 2.0, (n, m))
        if n > 2:
            pos[1] = pos[0]
            pos[2] = pos[0] + rng.uniform(0.0, 0.5, m) * EPS_POS
            vel[-1] = vel[0]
        params = [InteractionParams(delta=float(rng.uniform(0.2, 3.0)),
                                    eta=float(rng.uniform(0.0, 5.0)),
                                    alpha=float(rng.choice([1.0, 2.0])),
                                    radius=float(rng.choice([1.0, 2.0, 2.5, 5.0])))
                  for _ in range(n)]
        cells.append((pos, vel, params))
    return cells


@pytest.mark.parametrize("m", [2, 3])
def test_candidate_snapshot_is_per_cell_dense_snapshots(m):
    # The snapshot over stacked cells' candidate pairs holds, cell by cell,
    # the bits of that cell's own dense snapshot: edges, dp/dv, their norms,
    # guard flags, offset weights and forces; its distances are cdist's, and
    # each cell's minimum over its segment is the dense block's minimum.
    rng = np.random.default_rng(60 + m)
    seen = dict(exact=0, coincident=0, still=0, directed=0)
    for _ in range(20):
        cells = _stacked_cells(rng, m)
        sizes = [len(pos) for pos, _, _ in cells]
        pos, vel = (np.concatenate([c[k] for c in cells]) for k in (0, 1))
        params = [q for _, _, qs in cells for q in qs]
        pairs = _cell_pairs(sizes)
        stacked = snapshot_of(pos, vel, params, pairs=pairs)
        counts = np.array(sizes) * (np.array(sizes) - 1)
        d_min = np.minimum.reduceat(stacked.distances, np.cumsum(counts) - counts)
        accs = interaction_accelerations(stacked)
        g, lo, e_lo = stacked.graph, 0, 0
        for c, (p, v, qs) in enumerate(cells):
            n = len(p)
            dense = snapshot_of(p, v, qs)
            e_hi = e_lo + dense.graph.n_edges
            assert (g.receivers[e_lo:e_hi] - lo).tobytes() == dense.graph.receivers.tobytes()
            assert (g.sources[e_lo:e_hi] - lo).tobytes() == dense.graph.sources.tobytes()
            for name in ("dp", "dv", "dp_norm", "dv_norm", "pos_valid", "vel_valid",
                         "w_pos", "w_vel"):
                got, want = getattr(stacked, name)[e_lo:e_hi], getattr(dense, name)
                assert got.tobytes() == want.tobytes(), (c, name)
            assert accs[lo:lo + n].tobytes() == interaction_accelerations(dense).tobytes()
            block = cdist(p, p)
            own = slice(int(np.sum(counts[:c])), int(np.sum(counts[:c + 1])))
            rcv, src = np.nonzero(~np.eye(n, dtype=bool))
            assert stacked.distances[own].tobytes() == block[rcv, src].tobytes()
            np.fill_diagonal(block, np.inf)
            assert d_min[c] == block.min()
            radius = np.array([q.radius for q in qs])
            seen["exact"] += int(np.count_nonzero(block == radius[:, None]))
            seen["coincident"] += int(np.count_nonzero(~dense.pos_valid))
            seen["still"] += int(np.count_nonzero(~dense.vel_valid))
            edges = set(dense.graph.edges)
            seen["directed"] += sum((i, j) not in edges for j, i in edges)
            lo, e_lo = lo + n, e_hi
        assert e_lo == g.n_edges
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 99, 100, 101])
def test_dense_distances_are_scipys_bit_for_bit(n, m):
    # NumPy computes the matrix up to NUMPY_DISTANCE_NODES agents, scipy above;
    # either way the bits are cdist's, the upper triangle is pdist's and
    # metrics.pair_distances reduces pdist's distances.  The positions: random,
    # on an integer lattice (exact distances such as 5.0 = |(3, 4)|), half of
    # them duplicated rows, and near 1e154, where squares overflow to inf.
    assert NUMPY_DISTANCE_NODES == 100
    rng = np.random.default_rng(10 * n + m)
    duplicated = rng.normal(0.0, 10.0, (n, m))
    duplicated[n // 2:] = duplicated[:n - n // 2]
    with np.errstate(over="ignore"):
        for pos in (rng.normal(0.0, 10.0, (n, m)), rng.integers(-4, 5, (n, m)).astype(float),
                    duplicated, rng.uniform(-1.0, 1.0, (n, m)) * 1e154):
            dense, want = _distances(pos), pdist(pos)
            assert dense.tobytes() == cdist(pos, pos).tobytes()
            assert _condensed(dense).tobytes() == want.tobytes()
            reduced = (float(np.add.reduce(want) / want.shape[0]), float(np.minimum.reduce(want)))
            for got in (pair_distances(pos), pair_distances(pos, dense)):
                assert np.array(got).tobytes() == np.array(reduced).tobytes()


def test_candidate_distances_span_chunks():
    # More candidate pairs than one chunk of the distance pass (2**15): each
    # distance is still cdist's, across the chunk boundary too.
    rng = np.random.default_rng(5)
    sizes = (130, 2, 130)
    cells = [rng.uniform(0.0, 40.0, (n, 3)) for n in sizes]
    pos, pairs = np.concatenate(cells), _cell_pairs(sizes)
    assert pairs[0].size > 2 ** 15
    snap = snapshot_of(pos, pos[::-1].copy(), InteractionParams(radius=8.0), pairs=pairs)
    want = np.concatenate([cdist(c, c)[~np.eye(len(c), dtype=bool)] for c in cells])
    assert snap.distances.tobytes() == want.tobytes()
    assert np.array_equal(snap.graph.receivers, pairs[1][snap.distances <= 8.0])


def test_edge_order_and_degree_match_neighborhoods():
    rng = np.random.default_rng(31)
    for _ in range(5):
        pos, _vel = _guard_free_config(rng, 7, 2)
        params = _random_params(rng, 7)
        g = build_graph(pos, params)
        assert list(g.edges) == sorted(g.edges, key=lambda e: (e[1], e[0]))
        nbrs = all_neighborhoods(pos, [p.radius for p in params])
        for i in range(7):
            in_edges = [j for j, r in g.edges if r == i]
            assert tuple(sorted(in_edges)) == nbrs[i].members
        # Each incidence column carries one +1 (receiver) and one -1 (source).
        assert np.all(g.incidence.sum(axis=0) == 0)
        assert np.all(np.abs(g.incidence).sum(axis=0) == 2)


def test_laplacian_is_psd_with_zero_row_sums():
    rng = np.random.default_rng(6)
    pos, _ = _guard_free_config(rng, 6, 2)
    g = build_graph(pos, InteractionParams(radius=6.0))
    lap = laplacian(g)
    np.testing.assert_allclose(lap, lap.T, atol=0)
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(lap).min() >= -1e-10


# ---------------------------------------------------------------------------
# Weights and stacked operators


def test_two_node_weights_and_operators():
    pos, vel, p = _two_node_state()
    g = build_graph(pos, p)
    w = weighted_incidence(g, pos, vel, p)
    # (delta * 1 / 2)^2 = 0.25 on both edges.
    np.testing.assert_allclose(w.w_pos, [0.25, 0.25], rtol=1e-15)
    dvn = np.sqrt(2.0)
    np.testing.assert_allclose(w.w_vel, [3.0 / dvn] * 2, rtol=1e-14)
    # B = (D^T kron I)(D_bar): the in-edge rows of D scaled by
    # 1 - w_pos = 0.75 on each owned edge, so B = D^T diag(0.75) kron I.
    _, b_mat = stability_matrices(w, g)
    want = np.kron([[0.75, -0.75], [-0.75, 0.75]], np.eye(2))
    np.testing.assert_allclose(b_mat, want, rtol=1e-15)


def test_edge_weights_match_offset_formula():
    rng = np.random.default_rng(12)
    pos, vel = _guard_free_config(rng, 6, 3)
    params = _random_params(rng, 6)
    g = build_graph(pos, params)
    w = weighted_incidence(g, pos, vel, params)
    deg = g.in_degrees()
    for e, (j, i) in enumerate(g.edges):
        d = float(np.linalg.norm(pos[j] - pos[i]))
        s = float(np.linalg.norm(vel[j] - vel[i]))
        k = int(deg[i])
        assert w.w_pos[e] == pytest.approx(
            (params[i].delta * k / d) ** params[i].alpha, rel=1e-12)
        assert w.w_vel[e] == pytest.approx(
            (params[i].eta / (k * s)) ** params[i].beta, rel=1e-12)


def test_degenerate_edges_are_refused():
    p = InteractionParams()
    pos = np.array([[0.0, 0.0], [0.0, 0.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(OracleInapplicableError) as exc:
        global_rhs(pos, vel, p)
    assert exc.value.kind == "position"

    pos = np.array([[0.0, 0.0], [2.0, 0.0]])
    vel = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(OracleInapplicableError) as exc:
        global_rhs(pos, vel, p)
    assert exc.value.kind == "velocity"

    # Exactly at the thresholds the pair is regular, as for the per-agent
    # law: no refusal, valid residuals, and the same accelerations.
    pos = np.array([[0.0, 0.0], [EPS_POS, 0.0]])
    vel = np.array([[0.0, 0.0], [0.0, EPS_VEL]])
    assert np.linalg.norm(pos[1] - pos[0]) == EPS_POS
    assert np.linalg.norm(vel[1] - vel[0]) == EPS_VEL
    want = np.concatenate([interaction_acceleration(i, pos, vel, p) for i in range(2)])
    np.testing.assert_array_equal(global_rhs(pos, vel, p), want)
    err = edge_errors(pos, vel, p)
    assert err.pos_valid.all() and err.vel_valid.all()


def test_edge_state_matches_direct_differences():
    rng = np.random.default_rng(23)
    pos, vel = _guard_free_config(rng, 5, 2)
    params = _random_params(rng, 5)
    g = build_graph(pos, params)
    es = edge_state(g, pos, vel, params)
    w = weighted_incidence(g, pos, vel, params)
    m = 2
    for e, (j, i) in enumerate(g.edges):
        np.testing.assert_allclose(
            es.e[e * m:(e + 1) * m], pos[j] - pos[i], atol=1e-15)
        np.testing.assert_allclose(
            es.e_dot[e * m:(e + 1) * m], vel[j] - vel[i], atol=1e-15)
        np.testing.assert_allclose(
            es.q[e * m:(e + 1) * m], w.w_pos[e] * (pos[j] - pos[i]), rtol=1e-12)
        np.testing.assert_allclose(
            es.q_tilde[e * m:(e + 1) * m], w.w_vel[e] * (vel[j] - vel[i]),
            rtol=1e-12)
    # The incidence reproduces the same differences: e = -(D^T kron I) p.
    dt_kron = np.kron(g.incidence.T, np.eye(m))
    np.testing.assert_allclose(es.e, -(dt_kron @ pos.reshape(-1)), atol=1e-12)
    np.testing.assert_allclose(es.e_dot, -(dt_kron @ vel.reshape(-1)), atol=1e-12)


# ---------------------------------------------------------------------------
# Global right-hand side


def test_global_rhs_matches_per_agent_law():
    rng = np.random.default_rng(44)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, 4))
        pos, vel = _guard_free_config(rng, n, m)
        params = _random_params(rng, n)
        stacked = global_rhs(pos, vel, params)
        nbrs = all_neighborhoods(pos, [p.radius for p in params])
        for i in range(n):
            want = interaction_acceleration(i, pos, vel, params[i], nbrs=nbrs[i])
            np.testing.assert_allclose(
                stacked[i * m:(i + 1) * m], want, atol=1e-9)


def test_global_rhs_matrix_free_path():
    # The edge-wise global_rhs and lyapunov_value against the dense
    # Kronecker products they stand for.
    rng = np.random.default_rng(55)
    pos, vel = _guard_free_config(rng, 12, 2)
    params = _random_params(rng, 12)
    g = build_graph(pos, params)
    es = edge_state(g, pos, vel, params)
    w = weighted_incidence(g, pos, vel, params)
    eye = np.eye(2)
    in_rows = np.clip(g.incidence, 0.0, None)  # in-edge rows of D
    d_bar = np.kron(in_rows * (1.0 - w.w_pos), eye)
    d_hat = np.kron(in_rows * (1.0 - w.w_vel), eye)
    dt_kron = np.kron(g.incidence.T, eye)
    dense = (-d_bar @ (dt_kron @ pos.reshape(-1))
             - d_hat @ (dt_kron @ vel.reshape(-1)))
    np.testing.assert_allclose(global_rhs(pos, vel, params), dense, atol=1e-12)

    a_mat, b_mat = stability_matrices(w, g)
    v, v_dot = lyapunov_value(es, w, g)
    assert v == pytest.approx(
        0.5 * es.e_dot @ es.e_dot + 0.5 * es.e @ (b_mat @ es.e), rel=1e-12)
    assert v_dot == pytest.approx(-es.e_dot @ (a_mat @ es.e_dot), rel=1e-12)


def test_interaction_accelerations_match_per_agent_law_bitwise():
    # The engine's force kernel against core.interaction_acceleration, bit
    # for bit, across the guard bands: coincident pairs (also at exactly
    # EPS_POS), zero relative velocity, directed edges from per-agent radii,
    # per-agent delta/eta and mixed exponents alpha, beta in {1, 1.5, 2}.
    rng = np.random.default_rng(4040)
    seen = dict(coincident=0, still=0, directed=0, mixed_exponents=0, dims=set())
    for trial in range(240):
        n = int(rng.integers(2, 25))
        m = 2 + trial % 2
        pos = rng.uniform(0.0, 8.0, (n, m))
        vel = rng.uniform(-3.0, 3.0, (n, m))
        if trial % 3 == 0:
            pos[-1] = pos[0]
        if trial % 7 == 0:
            pos[0] = 0.0
            pos[1] = 0.0
            pos[1, 0] = EPS_POS
        if trial % 4 == 0:
            vel[1] = vel[0]
        if trial % 5 == 0:
            params = [InteractionParams(delta=float(rng.uniform(0.0, 3.0)),
                                        eta=float(rng.uniform(0.0, 5.0)),
                                        alpha=float(rng.choice([1.0, 1.5, 2.0])),
                                        beta=float(rng.choice([1.0, 1.5, 2.0])))] * n
        else:
            params = [InteractionParams(delta=float(rng.uniform(0.0, 3.0)),
                                        eta=float(rng.uniform(0.0, 5.0)),
                                        alpha=float(rng.choice([1.0, 1.5, 2.0])),
                                        beta=float(rng.choice([1.0, 1.5, 2.0])),
                                        radius=float(rng.uniform(1.0, 12.0)))
                      for _ in range(n)]
        snap = snapshot_of(pos, vel, params)
        g = snap.graph
        nbrs = all_neighborhoods(pos, [p.radius for p in params])
        want = np.array([interaction_acceleration(i, pos, vel, params[i], nbrs=nbrs[i])
                         for i in range(n)])
        got = interaction_accelerations(snap)
        assert got.tobytes() == want.tobytes(), trial
        dist = np.linalg.norm(pos[g.sources] - pos[g.receivers], axis=1)
        speed = np.linalg.norm(vel[g.sources] - vel[g.receivers], axis=1)
        seen["coincident"] += int(np.count_nonzero(dist < EPS_POS))
        seen["still"] += int(np.count_nonzero(speed < EPS_VEL))
        edges = set(g.edges)
        seen["directed"] += sum((i, j) not in edges for j, i in edges)
        seen["mixed_exponents"] += len({p.alpha for p in params}) > 1
        seen["dims"].add(m)
    assert seen["coincident"] >= 20 and seen["still"] >= 20
    assert seen["directed"] >= 100 and seen["mixed_exponents"] >= 100
    assert seen["dims"] == {2, 3}


def _guard_band_states(rng):
    """Seeded states with coincident and near-coincident pairs (offsets of
    either sign below EPS_POS), equal and near-equal velocities (below
    EPS_VEL), per-agent radii and per-agent delta/eta, in 2-D and 3-D."""
    for trial in range(60):
        n, m = int(rng.integers(3, 20)), 2 + trial % 2
        pos = rng.uniform(0.0, 6.0, (n, m))
        vel = rng.uniform(-2.0, 2.0, (n, m))
        pos[1] = pos[0]
        pos[2] = pos[0] - rng.uniform(0.0, 0.5, m) * EPS_POS
        vel[2] = vel[1]
        vel[-1] = vel[0] - rng.uniform(0.0, 0.5, m) * EPS_VEL
        params = [InteractionParams(delta=float(rng.uniform(0.2, 3.0)),
                                    eta=float(rng.uniform(0.0, 5.0)),
                                    alpha=float(rng.choice([1.0, 2.0])),
                                    radius=float(rng.uniform(2.0, 10.0))) for _ in range(n)]
        yield pos, vel, params


def test_edge_terms_equal_fancy_index_and_norm_forms():
    # The snapshot's take() gathers and column-sum norms against
    # positions[sources] and np.linalg.norm(x, axis=1), bit for bit.
    for pos, vel, params in _guard_band_states(np.random.default_rng(17)):
        s = snapshot_of(pos, vel, params)
        src, rcv = s.graph.sources, s.graph.receivers
        dp, dv = pos[src] - pos[rcv], vel[src] - vel[rcv]
        assert s.dp.tobytes() == dp.tobytes() and s.dv.tobytes() == dv.tobytes()
        assert s.dp_norm.tobytes() == np.linalg.norm(dp, axis=1).tobytes()
        assert s.dv_norm.tobytes() == np.linalg.norm(dv, axis=1).tobytes()


def test_kernel_and_edge_errors_equal_where_forms():
    # interaction_accelerations and edge_errors against their np.where and
    # boolean-index forms, written out here, bit for bit; guard rows of the
    # residuals are +0.0 sentinels, never -0.0.
    seen_pos = seen_vel = 0
    for pos, vel, params in _guard_band_states(np.random.default_rng(18)):
        s = snapshot_of(pos, vel, params)
        g, p = s.graph, s.params
        n, m = g.n_nodes, s.dp.shape[1]
        agg = np.where(s.pos_valid[:, None], (1.0 - s.w_pos)[:, None] * s.dp, 0.0)
        deg = g.in_degrees()
        for e in np.flatnonzero(~s.pos_valid).tolist():
            i, j = int(g.receivers[e]), int(g.sources[e])
            agg[e] = psi_weight(EPS_POS, float(p.delta[i]), int(deg[i]),
                                float(p.alpha[i])) * _tie_break_direction(i, j, m)
        ali = np.where(s.vel_valid[:, None], (1.0 - s.w_vel)[:, None] * s.dv, 0.0)
        want = _segment_sums(g.receivers, agg, n) + _segment_sums(g.receivers, ali, n)
        assert interaction_accelerations(s).tobytes() == want.tobytes()

        err = edge_errors(pos, vel, params, s)
        for valid, d, w, got, mean in ((s.pos_valid, s.dp, s.w_pos, err.pos, err.agent_mean_pos),
                                       (s.vel_valid, s.dv, s.w_vel, err.vel, err.agent_mean_vel)):
            rows = np.where(valid[:, None], d - w[:, None] * d, 0.0)
            assert got.tobytes() == rows.tobytes()
            assert not np.signbit(got[~valid]).any() and not got[~valid].any()
            total = _segment_sums(g.receivers[valid], rows[valid], n)
            count = np.bincount(g.receivers[valid], minlength=n).astype(float)[:, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                assert mean.tobytes() == np.where(count > 0, total / count, np.nan).tobytes()
        seen_pos += int(np.count_nonzero(~s.pos_valid))
        seen_vel += int(np.count_nonzero(~s.vel_valid))
    assert seen_pos >= 100 and seen_vel >= 100


def test_tie_break_overflow_kernel_matches_per_agent_law():
    # A coincident pair whose tie-break weight psi(EPS_POS) is beyond the
    # float range: the kernel and core.interaction_acceleration both raise
    # PairNumericsError for the same pair, lowest agent first.
    pos = np.array([[5.0, 5.0], [5.0, 5.0], [6.0, 5.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cases = {(1e160, 1e160, 1e160): (0, 1), (1.0, 1e160, 1.0): (1, 0), (1.0, 1.0, 1e160): (2, 0)}
    for deltas, pair in cases.items():
        params = [InteractionParams(delta=d) for d in deltas]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PairNumericsError) as got:
                interaction_accelerations(snapshot_of(pos, vel, params))
            i = got.value.i
            for lower in range(i):
                assert np.isfinite(interaction_acceleration(lower, pos, vel, params[lower])).all()
            with pytest.raises(PairNumericsError) as want:
                interaction_acceleration(i, pos, vel, params[i])
        assert (i, got.value.j) == (want.value.i, want.value.j) == pair


def test_global_rhs_isolated_agents_zero():
    pos = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    out = global_rhs(pos, vel, InteractionParams(radius=5.0))
    np.testing.assert_array_equal(out, np.zeros(6))


# ---------------------------------------------------------------------------
# Edge residuals


def _mean_error_oracle(pos, vel, p):
    n, m = pos.shape
    mean_pos = np.full((n, m), np.nan)
    mean_vel = np.full((n, m), np.nan)
    for i in range(n):
        nbrs = neighborhood(i, pos, p.radius)
        k = nbrs.count
        rows_p, rows_v = [], []
        for j in nbrs.members:
            dp = pos[j] - pos[i]
            dv = vel[j] - vel[i]
            d = float(np.linalg.norm(dp))
            s = float(np.linalg.norm(dv))
            if d >= EPS_POS:
                rows_p.append(dp - (p.delta * k / d) ** p.alpha * dp)
            if s >= EPS_VEL:
                rows_v.append(dv - (p.eta / (k * s)) ** p.beta * dv)
        if rows_p:
            mean_pos[i] = np.mean(rows_p, axis=0)
        if rows_v:
            mean_vel[i] = np.mean(rows_v, axis=0)
    return mean_pos, mean_vel


def test_edge_errors_per_agent_means():
    rng = np.random.default_rng(66)
    p = InteractionParams(delta=0.9, eta=1.4, radius=6.0)
    for _ in range(5):
        pos, vel = _guard_free_config(rng, 6, 2)
        err = edge_errors(pos, vel, p)
        want_pos, want_vel = _mean_error_oracle(pos, vel, p)
        np.testing.assert_allclose(err.agent_mean_pos, want_pos,
                                   atol=1e-12, equal_nan=True)
        np.testing.assert_allclose(err.agent_mean_vel, want_vel,
                                   atol=1e-12, equal_nan=True)


def test_edge_errors_skip_equal_velocity_pairs():
    # Agents 0 and 1 share a velocity; their mutual edges drop out of the
    # velocity averages but keep position residuals.
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
    vel = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    p = InteractionParams(radius=10.0)
    err = edge_errors(pos, vel, p)
    pair_01 = [(e, (j, i)) for e, (j, i) in enumerate(
        zip(err.sources.tolist(), err.receivers.tolist())) if {i, j} == {0, 1}]
    assert len(pair_01) == 2
    for e, _ in pair_01:
        assert not err.vel_valid[e]
        assert err.pos_valid[e]
    want_pos, want_vel = _mean_error_oracle(pos, vel, p)
    np.testing.assert_allclose(err.agent_mean_vel, want_vel, atol=1e-12)
    np.testing.assert_allclose(err.agent_mean_pos, want_pos, atol=1e-12)


def test_edge_errors_isolated_agent_is_nan():
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [500.0, 500.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    err = edge_errors(pos, vel, InteractionParams(radius=10.0))
    assert np.isnan(err.agent_mean_pos[2]).all()
    assert np.isnan(err.agent_mean_vel[2]).all()
    assert np.isfinite(err.agent_mean_pos[:2]).all()


# ---------------------------------------------------------------------------
# Lyapunov monitor


def test_lyapunov_value_identity_against_matrices():
    pos, vel, p = _two_node_state()
    g = build_graph(pos, p)
    w = weighted_incidence(g, pos, vel, p)
    es = edge_state(g, pos, vel, p)
    a_mat, b_mat = stability_matrices(w, g)
    v, v_dot = lyapunov_value(es, w, g)
    assert v == pytest.approx(
        0.5 * es.e_dot @ es.e_dot + 0.5 * es.e @ (b_mat @ es.e), rel=1e-12)
    assert v_dot == pytest.approx(-es.e_dot @ (a_mat @ es.e_dot), rel=1e-12)


def test_lyapunov_derivative_matches_finite_difference():
    # For two nodes B is symmetric, so the analytic derivative matches a
    # central difference of V along the frozen-weight edge dynamics
    # e'' = -B e - A e_dot.
    pos = np.array([[0.0, 0.0], [3.0, 0.0]])
    vel = np.array([[0.5, 0.0], [-0.25, 0.4]])
    p = InteractionParams(delta=0.7, eta=0.9, alpha=2.0, beta=1.0, radius=10.0)
    g = build_graph(pos, p)
    w = weighted_incidence(g, pos, vel, p)
    es = edge_state(g, pos, vel, p)
    a_mat, b_mat = stability_matrices(w, g)
    assert np.abs(b_mat - b_mat.T).max() < 1e-12

    def rhs(y):
        e, edot = np.split(y, 2)
        return np.concatenate([edot, -b_mat @ e - a_mat @ edot])

    def rk4(y, h):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def value(y):
        e, edot = np.split(y, 2)
        return 0.5 * edot @ edot + 0.5 * e @ (b_mat @ e)

    y0 = np.concatenate([es.e, es.e_dot])
    h = 1e-4
    fd = (value(rk4(y0, h)) - value(rk4(y0, -h))) / (2 * h)
    _, v_dot = lyapunov_value(es, w, g)
    assert v_dot == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_lyapunov_monitor_reports_fields():
    rng = np.random.default_rng(3)
    pos, vel = _guard_free_config(rng, 5, 2)
    report = lyapunov_monitor(pos, vel, InteractionParams(radius=50.0))
    assert set(report) == {"value", "derivative", "a_psd", "b_psd",
                           "n_edges", "spanning_tree"}
    assert report["n_edges"] == 20  # complete directed graph on 5 nodes
    assert report["spanning_tree"] is True
    assert isinstance(report["a_psd"], bool)
    assert np.isfinite(report["value"])


def test_lyapunov_monitor_reports_non_psd_without_warning(caplog):
    # A non-PSD A is carried by the report's a_psd and logged at DEBUG
    # only; a monitor loop over many snapshots prints no warning per call.
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    vel = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
    with caplog.at_level(logging.DEBUG, logger="flocksim.graph"):
        report = lyapunov_monitor(pos, vel, InteractionParams(delta=1.0, eta=3.0))
    assert report["a_psd"] is False
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert [r.levelno for r in caplog.records if "not PSD" in r.getMessage()] == [logging.DEBUG]


def test_lyapunov_monitor_dissipates_on_psd_configs():
    # Draw slow-offset random states and keep those whose symmetric part
    # of A is PSD; on every such state V_dot must be non-positive.
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(2, 8))
        pos, vel = _guard_free_config(rng, n, 2)
        p = InteractionParams(delta=float(rng.uniform(0, 0.5)),
                              eta=float(rng.uniform(0, 0.5)),
                              alpha=float(rng.choice([1.0, 2.0])),
                              beta=float(rng.choice([1.0, 2.0])),
                              radius=10.0)
        report = lyapunov_monitor(pos, vel, p)
        if report["a_psd"]:
            checked += 1
            assert report["derivative"] <= 1e-12
            if checked >= 10:
                break
    assert checked >= 10


def _psd_certificate_states(rng):
    """Seeded guard-free states: 2-D/3-D, per-agent radii, delta and eta.

    Every other state draws delta, eta in [0, 0.5] on a small group, where
    PSD cases occur; every tenth has more than 64 nodes in a sparse layout
    so the Kronecker reference stays small.
    """
    for k in range(200):
        m = 2 + k % 3 // 2
        big = k % 10 == 0
        slow = k % 2 == 1
        n = int(rng.integers(65, 72)) if big else int(rng.integers(2, 6 if slow else 10))
        hi = 0.5 if slow else 5.0
        pos, vel = _guard_free_config(rng, n, m)
        if big:
            pos *= 5.0
        params = [
            InteractionParams(
                delta=float(rng.uniform(0.0, hi)),
                eta=float(rng.uniform(0.0, hi)),
                alpha=float(rng.choice([1.0, 2.0])),
                beta=float(rng.choice([1.0, 2.0])),
                radius=float(rng.uniform(3.0, 6.0) if big else rng.uniform(2.0, 12.0)),
            )
            for _ in range(n)
        ]
        yield pos, vel, params


def test_psd_certificate_matches_kronecker_reference():
    rng = np.random.default_rng(2024)
    psd_true = [0, 0]
    big = 0
    for pos, vel, params in _psd_certificate_states(rng):
        g = build_graph(pos, params)
        if g.n_edges == 0:
            continue
        w = weighted_incidence(g, pos, vel, params)
        report = lyapunov_monitor(pos, vel, params)
        if g.n_nodes > 64:
            big += 1
            assert isinstance(report["a_psd"], bool)
            assert isinstance(report["b_psd"], bool)
        mats = stability_matrices(w, g)
        for k, (mat, weights, key) in enumerate(zip(
                mats, (1.0 - w.w_vel, 1.0 - w.w_pos), ("a_psd", "b_psd"))):
            ref = np.linalg.eigvalsh(0.5 * (mat + mat.T))
            reduced = _min_sym_eigenvalue(g, weights)
            assert abs(reduced - ref.min()) <= 1e-9 * np.abs(ref).max()
            assert report[key] == bool(ref.min() >= -1e-10)
            psd_true[k] += report[key]
    assert big >= 10
    assert min(psd_true) >= 5


def test_has_spanning_tree_cases():
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])

    def radii(*r):
        return [InteractionParams(radius=x) for x in r]

    assert has_spanning_tree(build_graph(pos, radii(2.5, 2.5, 2.5)))
    # Blind middle agent: edges 1 -> 0 and 1 -> 2, both outer agents follow it.
    assert has_spanning_tree(build_graph(pos, radii(2.5, 0.1, 2.5)))
    # Blind left agent: the right pair is still reachable from everyone.
    assert has_spanning_tree(build_graph(pos, radii(0.1, 2.5, 2.5)))
    # No edges at all.
    iso = np.array([[0.0, 0.0], [100.0, 0.0]])
    assert not has_spanning_tree(build_graph(iso, radii(1.0, 1.0)))


def _rooted_by_laplacian_rank(g) -> bool:
    """A root reaches every agent along source -> receiver edges iff the
    in-neighbour Laplacian (L_ii = |N_i|, L_ij = -1 for j in N_i) has rank n - 1."""
    n = g.n_nodes
    lap = np.zeros((n, n))
    np.add.at(lap, (g.receivers, g.sources), -1.0)
    lap[np.diag_indices(n)] = g.in_degrees()
    return np.linalg.matrix_rank(lap) == n - 1


def test_has_spanning_tree_matches_laplacian_rank():
    rng = np.random.default_rng(15)
    outcomes, one_way = set(), 0
    for k in range(600):
        n, m = (1, 2) if k == 0 else (int(rng.integers(2, 9)), 2 + k % 2)
        pos = rng.uniform(0.0, 6.0, (n, m)) * (100.0 if k % 50 == 1 else 1.0)
        g = build_graph(pos, [InteractionParams(radius=r) for r in rng.uniform(0.5, 4.0, n)])
        want = _rooted_by_laplacian_rank(g)
        assert has_spanning_tree(g) == want, (n, g.edges)
        outcomes.add((want, g.n_edges == 0))
        one_way += set(g.edges) != {(j, i) for i, j in g.edges}
    # Both answers occur with and without edges (n = 1 is the rooted edgeless
    # graph), and most graphs have one-way edges.
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}
    assert one_way > 300


def _edge_list_graph(n: int, edges) -> InteractionGraph:
    """The graph of (source, receiver) pairs, sorted by (receiver, source)."""
    src, rcv = np.array(sorted(edges, key=lambda e: (e[1], e[0])), dtype=int).reshape(-1, 2).T
    return InteractionGraph(n, src, rcv)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_has_spanning_tree_on_long_paths_and_cycles(n):
    # A directed path's far end is bit_length(n - 1) doublings of reach from
    # its root, the most any n-node graph needs.
    path = [(i, i + 1) for i in range(n - 1)]
    cycle = path + [(n - 1, 0)] * (n > 1)
    for g in (_edge_list_graph(n, path), _edge_list_graph(n, cycle)):
        assert _rooted_by_laplacian_rank(g)
        assert has_spanning_tree(g)
    if n >= 3:  # one reversed edge leaves two roots, 0 and k + 1
        k = n // 2
        g = _edge_list_graph(n, path[:k] + [(k + 1, k)] + path[k + 1:])
        assert not _rooted_by_laplacian_rank(g)
        assert not has_spanning_tree(g)


def test_has_spanning_tree_matches_laplacian_rank_3d_near_60_agents():
    rng = np.random.default_rng(61)
    outcomes = set()
    for _ in range(24):
        n = int(rng.integers(56, 65))
        pos = rng.uniform(0.0, 10.0, (n, 3))
        g = build_graph(pos, [InteractionParams(radius=r) for r in rng.uniform(2.0, 6.0, n)])
        want = _rooted_by_laplacian_rank(g)
        assert has_spanning_tree(g) == want, n
        outcomes.add(want)
    assert outcomes == {True, False}
