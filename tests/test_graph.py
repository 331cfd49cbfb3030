"""Unit tests for the graph-form dynamics, edge residuals, and the
Lyapunov monitor.

The two-node configuration is small enough to check the incidence
structure, weights, and stacked operators entry by entry; the stacked
right-hand side is cross-checked against the per-agent law on seeded
random states.
"""

import numpy as np
import pytest

from flocksim import (
    EPS_POS,
    EPS_VEL,
    InteractionParams,
    OracleInapplicableError,
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
    weighted_incidence,
)
from flocksim.core import all_neighborhoods
from flocksim.graph import _min_sym_eigenvalue, stability_matrices


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
            if d > EPS_POS:
                rows_p.append(dp - (p.delta * k / d) ** p.alpha * dp)
            if s > EPS_VEL:
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
    # Blind middle agent: two unreachable sinks.
    assert not has_spanning_tree(build_graph(pos, radii(2.5, 0.1, 2.5)))
    # Blind left agent: the right pair is still reachable from everyone.
    assert has_spanning_tree(build_graph(pos, radii(0.1, 2.5, 2.5)))
    # No edges at all.
    iso = np.array([[0.0, 0.0], [100.0, 0.0]])
    assert not has_spanning_tree(build_graph(iso, radii(1.0, 1.0)))
