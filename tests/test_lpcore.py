import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd import lpcore
from qnd.flows import FlowObjective, _build_multiflow_lp
from qnd.lpcore import (FEASIBILITY_TOL, PIVOT_TOL, LPNumericError, LPResult,
                        LPStatus, StandardFormLP, from_inequalities, solve)
from qnd.netmodel import WeightedUGraph


def vertex_enumeration_max(c, A_ineq, b_ineq):
    """Independent oracle: enumerate basic feasible vertices of
    ``A x <= b, x >= 0`` and maximize ``c . x`` over them."""
    c = np.asarray(c, float)
    n = c.shape[0]
    rows = [np.asarray(r, float) for r in A_ineq] + \
           [-np.eye(n)[i] for i in range(n)]
    rhs = list(b_ineq) + [0.0] * n
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        mat = np.array([rows[i] for i in combo])
        vec = np.array([rhs[i] for i in combo])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, vec)
        if np.all([r @ x <= b + 1e-9 for r, b in zip(rows, rhs)]):
            value = c @ x
            if best is None or value > best:
                best = value
    return best


# --- the dense reference solver ------------------------------------------
# A two-phase tableau simplex whose every pivot subtracts a full outer
# product and whose Bland's rule scans every column and row in Python.
# lpcore.solve must reproduce it bit for bit.

def _dense_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    piv = T[:, col].copy()
    piv[row] = 0.0
    T -= np.outer(piv, T[row])
    basis[row] = col


def _dense_phase(T, basis, n_cols, iterations):
    m = T.shape[0] - 1
    while True:
        reduced = T[-1, :n_cols]
        entering = -1
        for j in range(n_cols):
            if reduced[j] > PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return True, iterations
        col = T[:m, entering]
        best_ratio = np.inf
        leaving = -1
        for i in range(m):
            if col[i] > PIVOT_TOL:
                ratio = T[i, -1] / col[i]
                if ratio < best_ratio - PIVOT_TOL or (
                        abs(ratio - best_ratio) <= PIVOT_TOL
                        and (leaving < 0 or basis[i] < basis[leaving])):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return False, iterations
        _dense_pivot(T, basis, leaving, entering)
        iterations += 1
        if iterations > lpcore._MAX_PIVOTS:
            raise LPNumericError("too many pivots")


def dense_solve(lp):
    A = lp.A.copy()
    b = lp.b.copy()
    c = lp.c.copy()
    m, n = A.shape
    if m == 0:
        if np.any(c > PIVOT_TOL):
            return LPResult(LPStatus.UNBOUNDED, np.inf, np.zeros(n), 0)
        return LPResult(LPStatus.OPTIMAL, 0.0, np.zeros(n), 0)
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[-1, :n] = A.sum(axis=0)
    T[-1, -1] = b.sum()
    _, iterations = _dense_phase(T, basis, n + m, 0)
    if T[-1, -1] > FEASIBILITY_TOL * (1.0 + np.abs(b).max(initial=0.0)):
        return LPResult(LPStatus.INFEASIBLE, np.nan, np.full(n, np.nan),
                        iterations)
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(T[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue
            _dense_pivot(T, basis, i, pivot_col)
            iterations += 1
        keep_rows.append(i)
    rows = keep_rows + [m]
    T = T[rows][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep_rows]
    T[-1, :n] = c
    T[-1, -1] = 0.0
    for i, bi in enumerate(basis):
        if abs(T[-1, bi]) > 0.0:
            T[-1] -= T[-1, bi] * T[i]
    optimal, iterations = _dense_phase(T, basis, n, iterations)
    if not optimal:
        return LPResult(LPStatus.UNBOUNDED, np.inf, np.full(n, np.nan),
                        iterations)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    residual = np.abs(lp.A @ x - lp.b).max(initial=0.0)
    bound = FEASIBILITY_TOL * (1.0 + np.abs(lp.b).max(initial=0.0))
    if residual > bound:
        raise LPNumericError("feasibility residual")
    if x.min(initial=0.0) < -FEASIBILITY_TOL:
        raise LPNumericError("negative component")
    return LPResult(LPStatus.OPTIMAL, float(lp.c @ x), x, iterations)


def _outcome(solver, lp):
    try:
        return solver(lp)
    except LPNumericError as exc:
        return type(exc)


def assert_same_as_dense(lp):
    """``solve`` and the dense reference agree bit for bit: status,
    iteration count, value and every solution entry, signs of zeros and
    NaN payloads included."""
    new, ref = _outcome(solve, lp), _outcome(dense_solve, lp)
    if not isinstance(ref, LPResult):
        assert new is ref
        return new
    assert new.status is ref.status
    assert new.iterations == ref.iterations
    assert np.float64(new.value).tobytes() == np.float64(ref.value).tobytes()
    assert np.array_equal(np.signbit(new.solution), np.signbit(ref.solution))
    assert new.solution.tobytes() == ref.solution.tobytes()
    return new


class TestSolve:
    def test_single_equality(self):
        lp = StandardFormLP(c=[1.0], A=[[1.0]], b=[1.0])
        res = solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.value == pytest.approx(1.0)

    def test_one_constraint_with_slack(self):
        lp = from_inequalities([1.0, 1.0], [[1.0, 1.0]], [1.0])
        res = solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.value == pytest.approx(1.0)

    def test_two_constraint_example_against_vertex_oracle(self):
        c = [3.0, 2.0]
        A = [[1.0, 1.0], [1.0, 3.0]]
        b = [4.0, 6.0]
        expected = vertex_enumeration_max(c, A, b)
        assert expected == pytest.approx(12.0)  # attained at (4, 0)
        res = solve(from_inequalities(c, A, b))
        assert res.status is LPStatus.OPTIMAL
        assert res.value == pytest.approx(expected)
        assert res.solution[:2] == pytest.approx([4.0, 0.0])

    def test_infeasible(self):
        # x1 + x2 = -1 with x >= 0 has no solution.
        lp = StandardFormLP(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[-1.0])
        assert solve(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        # maximize x1 with only x1 - x2 = 0.
        lp = StandardFormLP(c=[1.0, 0.0], A=[[1.0, -1.0]], b=[0.0])
        assert solve(lp).status is LPStatus.UNBOUNDED

    def test_degenerate_value_is_contractual(self):
        # Two identical constraints: degenerate optimum, value still right.
        lp = from_inequalities([1.0, 1.0],
                               [[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
        res = solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.value == pytest.approx(2.0)

    def test_redundant_equality_rows(self):
        lp = StandardFormLP(c=[1.0, 0.0],
                            A=[[1.0, 1.0], [2.0, 2.0]], b=[1.0, 2.0])
        res = solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.value == pytest.approx(1.0)

    def test_beale_cycling_example(self, monkeypatch):
        # Beale (1955), the textbook program on which the largest-coefficient
        # rule cycles.  Every pivot of a simplex phase must enter the
        # smallest improving column, no basis may repeat, and the solve
        # must reach the optimum 1/20 at x = (1/25, 0, 1, 0).
        c = [0.75, -150.0, 0.02, -6.0]
        A = [[0.25, -60.0, -0.04, 9.0],
             [0.5, -90.0, -0.02, 3.0],
             [0.0, 0.0, 1.0, 0.0]]
        b = [0.0, 0.0, 1.0]
        pivots = []
        pivot = lpcore._pivot

        def recording_pivot(T, basis, row, col):
            improving = np.flatnonzero(T[-1, :-1] > PIVOT_TOL)
            pivots.append((tuple(basis), col, improving[:1].tolist()))
            pivot(T, basis, row, col)

        monkeypatch.setattr(lpcore, "_pivot", recording_pivot)
        lp = from_inequalities(c, A, b)
        res = solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.value == pytest.approx(1.0 / 20.0, abs=1e-12)
        assert res.solution[:4] == pytest.approx([0.04, 0.0, 1.0, 0.0],
                                                 abs=1e-12)
        assert len(pivots) == res.iterations
        # Drive-out pivots after phase 1 have no improving column.
        assert all(col == first[0] for _, col, first in pivots if first)
        bases = [basis for basis, _, _ in pivots]
        assert len(set(bases)) == len(bases)
        monkeypatch.undo()
        assert_same_as_dense(lp)

    def test_negated_rows_and_zero_right_hand_sides(self):
        # Rows with b < 0 are negated, which turns their zero entries into
        # -0.0; zero right-hand sides make every pivot degenerate.
        lp = StandardFormLP(c=[1.0, -1.0, 2.0, 0.0],
                            A=[[1.0, 0.0, -1.0, 0.0],
                               [0.0, -1.0, 0.0, 1.0],
                               [-1.0, 0.0, -2.0, -1.0]],
                            b=[0.0, -0.0, -3.0])
        res = assert_same_as_dense(lp)
        assert res.status is LPStatus.OPTIMAL

    def test_determinism(self):
        rng = np.random.default_rng(3)
        A = rng.integers(-3, 4, size=(4, 7)).astype(float)
        b = np.abs(rng.integers(1, 5, size=4)).astype(float)
        c = rng.integers(-2, 5, size=7).astype(float)
        lp1 = from_inequalities(c, A, b)
        lp2 = from_inequalities(c, A, b)
        r1, r2 = solve(lp1), solve(lp2)
        assert r1.status == r2.status
        if r1.status is LPStatus.OPTIMAL:
            assert r1.value == r2.value
            assert np.array_equal(r1.solution, r2.solution)
            assert r1.iterations == r2.iterations


class TestStandardForm:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_objective_rejected(self, bad):
        with pytest.raises(ValueError, match="c must be finite"):
            StandardFormLP(c=[bad, 1.0], A=[[1.0, 1.0]], b=[1.0])


class TestFromInequalities:
    def test_slack_per_inequality(self):
        lp = from_inequalities([1.0, 2.0], [[1.0, 1.0]], [3.0])
        assert lp.A.shape == (1, 3)
        assert lp.n_structural == 2
        assert lp.c[2] == 0.0

    def test_no_inequalities_identity(self):
        lp = from_inequalities([1.0], A_eq=[[1.0]], b_eq=[2.0])
        assert lp.A.shape == (1, 1)
        assert lp.n_structural == 1

    def test_flow_program_dimensions_for_three_vertex_path(self):
        # Path on 3 vertices has 2 undirected edges: 2 * |E'| = 4 edge
        # flows, |E'| = 2 capacity inequalities, |V| - 2 = 1 conservation
        # equality.  Standard form: N = 3 |E'| = 6, M = |E'| + |V| - 2 = 3.
        n_edges, n_vertices = 2, 3
        c = np.zeros(2 * n_edges)
        A_ineq = np.zeros((n_edges, 2 * n_edges))
        for j in range(n_edges):
            A_ineq[j, 2 * j] = A_ineq[j, 2 * j + 1] = 1.0
        A_eq = np.zeros((n_vertices - 2, 2 * n_edges))
        lp = from_inequalities(c, A_ineq, np.ones(n_edges),
                               A_eq, np.zeros(n_vertices - 2))
        assert lp.A.shape[1] == 3 * n_edges
        assert lp.A.shape[0] == n_edges + n_vertices - 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            from_inequalities([1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0])


def _grid(k, seed):
    """A k x k grid with weights from a small set, so that many flow
    programs tie and pivot degenerately; returns (graph, corners)."""
    rng = np.random.default_rng(seed)
    weights = (0.0, 0.2, 0.5, 0.9, 1.3)
    edges = []
    for i in range(k):
        for j in range(k):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < k and j + dj < k:
                    edges.append((f"r{i}c{j}", f"r{i + di}c{j + dj}",
                                  float(rng.choice(weights))))
    vertices = [f"r{i}c{j}" for i in range(k) for j in range(k)]
    last = k - 1
    corners = [f"r{i}c{j}" for i, j in ((0, 0), (0, last), (last, 0),
                                        (last, last))]
    return WeightedUGraph(vertices=vertices, uedges=edges), corners


def _flow_program(kind, k, seed):
    graph, (a, b, c, d) = _grid(k, seed)
    crossing = [(a, d), (b, c)]
    if kind == "bipartite":
        return _build_multiflow_lp(graph, [(a, d)], FlowObjective.TOTAL)
    if kind == "multipair-total":
        return _build_multiflow_lp(graph, crossing, FlowObjective.TOTAL)
    if kind == "multipair-worst":
        return _build_multiflow_lp(graph, crossing, FlowObjective.WORST)
    if kind == "multipartite":
        return _build_multiflow_lp(
            graph, list(itertools.combinations((a, b, c, d), 2)),
            FlowObjective.WORST, shared_capacity=False)
    # channel-use: one usage frequency per edge and the q-budget row.
    terms = [[(j, w)] for j, (_, _, w) in enumerate(graph.uedges)]
    return _build_multiflow_lp(graph, [(a, d)], FlowObjective.TOTAL,
                               usage_terms=terms)


class TestMatchesDenseReference:
    @pytest.mark.parametrize("kind", ["bipartite", "multipair-total",
                                      "multipair-worst", "multipartite",
                                      "channel-use"])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_flow_programs(self, kind, k):
        lp, _, _ = _flow_program(kind, k, seed=k)
        res = assert_same_as_dense(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.iterations > 0

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_degenerate_and_redundant_programs(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 7))
        # Zeros make rows degenerate; entries like 0.1 and 0.7 are inexact
        # in binary, so a change in the order of any sum shows in the bits.
        entry = st.sampled_from([-2.0, -0.7, -0.5, 0.0, 0.0, 0.1, 1.0, 3.0])
        rhs = st.sampled_from([-2.0, -0.3, 0.0, 0.0, 0.0, 0.7, 2.0])
        A = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=m, max_size=m))
        b = data.draw(st.lists(rhs, min_size=m, max_size=m))
        c = data.draw(st.lists(entry, min_size=n, max_size=n))
        # Redundant rows: scaled copies (-1 turns zeros into -0.0) and
        # sums of two rows, with matching right-hand sides.
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, m - 1))
            scale = data.draw(st.sampled_from([1.0, -1.0, 2.0]))
            row, value = [scale * x for x in A[i]], scale * b[i]
            if data.draw(st.booleans()):
                j = data.draw(st.integers(0, m - 1))
                row = [x + y for x, y in zip(row, A[j])]
                value += b[j]
            A.append(row)
            b.append(value)
        if data.draw(st.booleans()):
            lp = from_inequalities(c, A, b)
        else:
            lp = StandardFormLP(c=c, A=A, b=b)
        assert_same_as_dense(lp)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_lps_feasibility_and_duality(seed):
    """Optimal solutions satisfy A x = b and never exceed a dual bound."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 4), rng.integers(1, 5)
    A = rng.integers(0, 4, size=(m, n)).astype(float)
    b = rng.integers(0, 6, size=m).astype(float)
    c = rng.integers(-2, 4, size=n).astype(float)
    lp = from_inequalities(c, A, b)
    res = solve(lp)
    # A x <= b with x >= 0 and b >= 0 is always feasible at x = 0.
    assert res.status in (LPStatus.OPTIMAL, LPStatus.UNBOUNDED)
    if res.status is LPStatus.OPTIMAL:
        residual = np.abs(lp.A @ res.solution - lp.b).max()
        assert residual <= 1e-9 * (1.0 + np.abs(lp.b).max(initial=0.0))
        assert res.solution.min() >= -1e-9
        assert res.value >= c @ np.zeros(n) - 1e-9  # x = 0 is feasible
        # Weak duality: any y >= 0 with A^T y >= c bounds the value.
        y = np.full(m, max(1.0, float(np.abs(c).max()) * 10))
        if np.all(A.T @ y >= c - 1e-12):
            assert res.value <= y @ b + 1e-6
