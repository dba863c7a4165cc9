"""Flow and cut computations on undirected weighted graphs.

The flow maximizations are linear programs solved by :mod:`qnd.lpcore`:
single-commodity max-flow, and multicommodity total / worst-case concurrent
flow.  One function assembles every flow program of the package, including
the capacity programs of :mod:`qnd.capbounds` with their per-pair capacity
copies and optimized usage frequencies, and every solution it returns has
passed :meth:`FlowAssignment.verify`, a solver-independent re-check of
capacity and conservation.  Alongside them live small brute-force oracles,
minimum cut, minimum multicut, minimum cut ratio, terminal-set
connectivity, and Steiner tree packing, which are exact on small instances
and serve as independent cross-checks of the LP results (max-flow equals
min-cut, total flow is at most the multicut weight, worst-case flow at most
the cut ratio).

Flows are real-valued throughout; integrality appears only inside the
brute-force tree-packing oracle.
"""

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lpcore
from .netmodel import WeightedUGraph

__all__ = [
    "FlowAssignment",
    "FlowVerificationError",
    "CutResult",
    "FlowObjective",
    "SizeLimitError",
    "max_flow",
    "min_cut_bruteforce",
    "multicommodity_flow",
    "min_multicut_bruteforce",
    "min_cut_ratio_bruteforce",
    "s_connectivity",
    "steiner_packing_bruteforce",
]

# Enumeration guards, sized so each oracle finishes in seconds on one core.
MAX_CUT_VERTICES = 24
MAX_MULTICUT_EDGES = 22
MAX_RATIO_VERTICES = 20
MAX_STEINER_EDGES = 12

_VERIFY_TOL = 1e-7


class SizeLimitError(ValueError):
    """Instance exceeds the enumeration guard of a brute-force oracle."""


class FlowObjective(str, enum.Enum):
    TOTAL = "total"
    WORST = "worst"


class FlowVerificationError(AssertionError):
    """A flow assignment violates capacity or conservation.

    Raised explicitly, so the check also runs under ``python -O``."""


@dataclass(frozen=True)
class FlowAssignment:
    """Edge flows of one or more commodities on an undirected graph.

    ``flows[i, j]`` holds ``(f_uv, f_vu)`` for commodity ``i`` on edge
    ``edges[j] = (u, v)``.  ``values[i]`` is the net flow leaving the
    commodity's source.  Every assignment returned by this module (and by
    :mod:`qnd.capbounds`) has passed :meth:`verify`, which re-checks the
    capacity constraints and per-commodity flow conservation directly,
    independent of the LP solver.
    """

    edges: tuple
    commodities: tuple
    flows: np.ndarray
    values: tuple

    def verify(self, graph, tol=_VERIFY_TOL, shared_capacity=True):
        """Re-verify capacity and conservation against ``graph``.

        Raises :class:`FlowVerificationError`, an ``AssertionError``, on
        violation.  With ``shared_capacity`` True the summed load
        ``sum_i (f_uv + f_vu)`` must fit the edge weight; with False each
        commodity is checked against the full edge weight separately (the
        regime of independent per-pair flow problems).
        """
        weight = {(u, v): wt for u, v, wt in graph.uedges}
        capacity = np.array([weight[e] for e in self.edges])
        occupancy = self.flows.sum(axis=2)  # (k, n_edges)
        load = occupancy.sum(axis=0, keepdims=True) if shared_capacity \
            else occupancy
        over = np.argwhere(~(load <= capacity + tol))
        if over.size:
            i, j = over[0]
            u, v = self.edges[j]
            where = "" if shared_capacity else f" (commodity {i})"
            raise FlowVerificationError(
                f"capacity violated on {{{u}, {v}}}{where}")
        if not np.all(self.flows >= -tol):
            raise FlowVerificationError("negative edge flow")
        index = {v: n for n, v in enumerate(graph.vertices)}
        tails = np.array([index[u] for u, _ in self.edges], dtype=int)
        heads = np.array([index[v] for _, v in self.edges], dtype=int)
        n_v = len(graph.vertices)
        for i, (s, t) in enumerate(self.commodities):
            forward = self.flows[i, :, 0] - self.flows[i, :, 1]
            net = (np.bincount(tails, forward, n_v)
                   - np.bincount(heads, forward, n_v))
            inner = np.ones(n_v, dtype=bool)
            inner[[index[s], index[t]]] = False
            leaks = np.flatnonzero(inner & ~(np.abs(net) <= tol))
            if leaks.size:
                raise FlowVerificationError(
                    f"conservation violated at {graph.vertices[leaks[0]]} "
                    f"(commodity {i})")
            out = net[index[s]]
            if not abs(out - self.values[i]) <= max(tol, tol * abs(out)):
                raise FlowVerificationError(
                    f"flow value of commodity {i} differs from the net "
                    f"outflow of its source")


@dataclass(frozen=True)
class CutResult:
    """A vertex-set cut: the side ``partition``, its boundary edges, and
    the total boundary weight."""

    partition: tuple
    cut_edges: tuple
    weight: float


def _check_terminals(graph, *terminals):
    for t in terminals:
        if t not in graph.vertices:
            raise ValueError(f"terminal {t!r} is not a vertex of the graph")


def _build_multiflow_lp(graph, commodities, objective, usage_terms=None,
                        shared_capacity=True):
    """Assemble a flow LP; every flow program of the package is built here.

    Variables are laid out as ``2 * n_edges`` flows per commodity
    (f_uv, f_vu per canonical edge), then one worst-case slack variable
    when the objective is WORST, then the usage frequencies.

    Edge capacities are the graph weights unless ``usage_terms`` is given:
    then ``usage_terms[j]`` lists the ``(q_index, value)`` terms of edge
    ``j``, its capacity is ``sum(value * q[q_index])`` over nonnegative
    usage variables ``q``, and one final equality fixes ``sum(q) = 1``.
    Edges of infinite weight, or with an infinite term, get no capacity
    row.  With ``shared_capacity`` False every commodity gets its own copy
    of the capacity rows.  Capacity rows are emitted group-major, then by
    edge.

    Returns ``(lp, q_offset, net_flow_row)``.
    """
    edges = [(u, v) for u, v, _ in graph.uedges]
    weights = [w for _, _, w in graph.uedges]
    n_e = len(edges)
    k = len(commodities)
    n_flow = 2 * n_e * k
    worst = FlowObjective(objective) is FlowObjective.WORST
    n_q = sum(len(terms) for terms in usage_terms or ())
    q_offset = n_flow + (1 if worst else 0)
    n = q_offset + n_q

    def fvar(i, j, direction):
        return i * 2 * n_e + 2 * j + direction

    incident = {v: [] for v in graph.vertices}
    for j, (u, v) in enumerate(edges):
        incident[u].append((j, 0))
        incident[v].append((j, 1))

    rows_ineq, rhs_ineq = [], []
    groups = [range(k)] if shared_capacity else [[i] for i in range(k)]
    for group in groups:
        for j, w in enumerate(weights):
            if usage_terms is None:
                if math.isinf(w):
                    continue
                rhs = w
            elif any(math.isinf(val) for _, val in usage_terms[j]):
                continue
            else:
                rhs = 0.0
            row = np.zeros(n)
            for i in group:
                row[fvar(i, j, 0)] = 1.0
                row[fvar(i, j, 1)] = 1.0
            if usage_terms is not None:
                for q_idx, val in usage_terms[j]:
                    row[q_offset + q_idx] = -val
            rows_ineq.append(row)
            rhs_ineq.append(rhs)

    def net_flow_row(i, vertex):
        row = np.zeros(n)
        for j, direction in incident[vertex]:
            row[fvar(i, j, direction)] += 1.0
            row[fvar(i, j, 1 - direction)] -= 1.0
        return row

    rows_eq, rhs_eq = [], []
    for i, (s, t) in enumerate(commodities):
        for v in graph.vertices:
            if v in (s, t):
                continue
            if not incident[v]:
                continue
            rows_eq.append(net_flow_row(i, v))
            rhs_eq.append(0.0)

    c = np.zeros(n)
    if worst:
        c[n_flow] = 1.0
        for i, (s, t) in enumerate(commodities):
            row = np.zeros(n)
            row[n_flow] = 1.0
            row -= net_flow_row(i, s)
            rows_ineq.append(row)
            rhs_ineq.append(0.0)
    else:
        for i, (s, t) in enumerate(commodities):
            c += net_flow_row(i, s)

    if usage_terms is not None:
        row = np.zeros(n)
        row[q_offset:] = 1.0
        rows_eq.append(row)
        rhs_eq.append(1.0)

    lp = lpcore.from_inequalities(
        c,
        np.array(rows_ineq).reshape(-1, n), np.array(rhs_ineq),
        np.array(rows_eq).reshape(-1, n), np.array(rhs_eq))
    return lp, q_offset, net_flow_row


def _usage_capacity(terms, q):
    """Capacity of one edge under usage frequencies ``q``, as the LP sees
    it: unbounded as soon as one channel on the edge is lossless, and never
    below zero (the solver may return frequencies like -1e-17)."""
    if any(math.isinf(val) for _, val in terms):
        return math.inf
    return max(0.0, sum(val * q[q_idx] for q_idx, val in terms))


def _solve_flow(graph, commodities, objective, usage_terms=None,
                shared_capacity=True):
    """Build, solve and verify one flow LP (see :func:`_build_multiflow_lp`
    for the arguments).

    Returns ``(value, assignment, q)`` with ``q`` the optimized usage
    frequencies when ``usage_terms`` is given, else None.  The assignment
    is verified against the capacities the program enforced: the graph
    weights, or the usage terms evaluated at ``q``.  An unbounded program,
    only possible through infinite capacities, returns
    ``(math.inf, None, None)``.
    """
    commodities = tuple(tuple(p) for p in commodities)
    k = len(commodities)
    if not graph.uedges:
        assignment = FlowAssignment(edges=(), commodities=commodities,
                                    flows=np.zeros((k, 0, 2)),
                                    values=(0.0,) * k)
        return 0.0, assignment, None
    lp, q_offset, net_flow_row = _build_multiflow_lp(
        graph, commodities, objective, usage_terms, shared_capacity)
    result = lpcore.solve(lp)
    if result.status is lpcore.LPStatus.UNBOUNDED:
        return math.inf, None, None
    if result.status is not lpcore.LPStatus.OPTIMAL:
        raise lpcore.LPNumericError(
            f"flow LP unexpectedly {result.status.value}")
    x = result.solution[:lp.n_structural]
    n_e = len(graph.uedges)
    flows = x[:2 * n_e * k].reshape(k, n_e, 2).copy()
    values = tuple(float(net_flow_row(i, commodities[i][0]) @ x)
                   for i in range(k))
    assignment = FlowAssignment(
        edges=tuple((u, v) for u, v, _ in graph.uedges),
        commodities=commodities, flows=flows, values=values)
    q = None
    capacities = graph
    if usage_terms is not None:
        q = tuple(float(v) for v in x[q_offset:])
        capacities = WeightedUGraph(
            vertices=graph.vertices,
            uedges=tuple((u, v, _usage_capacity(terms, q))
                         for (u, v, _), terms in zip(graph.uedges,
                                                     usage_terms)))
    assignment.verify(capacities, shared_capacity=shared_capacity)
    return float(result.value), assignment, q


def max_flow(graph, s, t):
    """Maximum flow value from ``s`` to ``t`` and an attaining assignment.

    Equals the minimum cut weight separating the terminals.  Returns
    ``(math.inf, None)`` when the terminals are joined through infinitely
    weighted edges.
    """
    _check_terminals(graph, s, t)
    if s == t:
        raise ValueError("source and target must differ")
    value, assignment, _ = _solve_flow(graph, [(s, t)], FlowObjective.TOTAL)
    return value, assignment


def multicommodity_flow(graph, commodities, objective=FlowObjective.TOTAL):
    """Concurrent flow of several commodities sharing edge capacity.

    Parameters
    ----------
    graph : WeightedUGraph
    commodities : sequence of (source, target) pairs
    objective : FlowObjective
        TOTAL maximizes the sum of the commodity flows; WORST maximizes the
        least commodity flow (via a slack variable bounded by every
        commodity's flow).

    With a single commodity both objectives coincide with :func:`max_flow`.
    """
    commodities = [tuple(p) for p in commodities]
    if not commodities:
        raise ValueError("at least one commodity required")
    for s, t in commodities:
        _check_terminals(graph, s, t)
        if s == t:
            raise ValueError(f"commodity endpoints coincide: {s!r}")
    value, assignment, _ = _solve_flow(graph, commodities, objective)
    return value, assignment


def _cut_weights_vectorized(graph, fixed_in, fixed_out):
    """Weights of all cuts over subsets of the non-fixed vertices.

    Returns (masks side array per free vertex, weight array indexed by
    mask, free vertex list).  ``fixed_in`` vertices are always inside W,
    ``fixed_out`` always outside.
    """
    free = [v for v in graph.vertices
            if v not in fixed_in and v not in fixed_out]
    idx = {v: i for i, v in enumerate(free)}
    n_masks = 1 << len(free)
    masks = np.arange(n_masks, dtype=np.int64)
    weights = np.zeros(n_masks)

    def side(v):
        if v in fixed_in:
            return np.ones(n_masks, dtype=bool)
        if v in fixed_out:
            return np.zeros(n_masks, dtype=bool)
        return ((masks >> idx[v]) & 1).astype(bool)

    for u, v, w in graph.uedges:
        crossing = side(u) ^ side(v)
        if math.isinf(w):
            weights = np.where(crossing, np.inf, weights)
        else:
            weights = weights + np.where(crossing, w, 0.0)
    return masks, weights, free


def min_cut_bruteforce(graph, s, t, limit=MAX_CUT_VERTICES):
    """Minimum-weight s/t cut by enumerating all vertex bipartitions.

    Ties are broken toward the lexicographically smallest vertex subset
    (compared as the sorted tuple of member names) for reproducibility.
    """
    _check_terminals(graph, s, t)
    if s == t:
        raise ValueError("source and target must differ")
    if len(graph.vertices) > limit:
        raise SizeLimitError(
            f"{len(graph.vertices)} vertices exceed the enumeration "
            f"limit of {limit}")
    masks, weights, free = _cut_weights_vectorized(graph, {s}, {t})
    best = weights.min()
    candidates = np.nonzero(weights <= best)[0]

    def members(mask):
        side = [s] + [v for i, v in enumerate(free) if (mask >> i) & 1]
        return tuple(sorted(side))

    best_mask = min((members(int(m)), int(m)) for m in candidates)[1]
    partition = members(best_mask)
    in_w = set(partition)
    cut_edges = tuple((u, v) for u, v, w in graph.uedges
                      if (u in in_w) != (v in in_w))
    return CutResult(partition=partition, cut_edges=cut_edges,
                     weight=float(weights[best_mask]))


def _restricted_growth_partitions(n, max_blocks):
    """Yield set partitions of range(n) into at most ``max_blocks`` blocks
    as label arrays, in canonical restricted-growth order."""
    labels = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(min(used + 1, max_blocks)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    if n == 0:
        yield ()
    else:
        yield from rec(0, 0)


def _components(vertices, edges):
    parent = {v: v for v in vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    return {v: find(v) for v in vertices}


def min_multicut_bruteforce(graph, commodities, limit=MAX_MULTICUT_EDGES):
    """Minimum-weight edge set disconnecting every commodity pair.

    The search enumerates vertex partitions into at most ``k + 1`` blocks
    (the component structure of an optimal multicut never needs more; any
    surplus block can be merged without separating fewer pairs or adding
    weight) and takes the crossing edges of the best admissible partition.
    The winning edge set is re-verified by an independent connectivity
    check after removal.
    """
    commodities = [tuple(p) for p in commodities]
    for s, t in commodities:
        _check_terminals(graph, s, t)
    if len(graph.uedges) > limit:
        raise SizeLimitError(
            f"{len(graph.uedges)} edges exceed the enumeration limit "
            f"of {limit}")
    if not commodities:
        return 0.0, ()
    vertices = list(graph.vertices)
    vidx = {v: i for i, v in enumerate(vertices)}
    k = len(commodities)
    best_weight = math.inf
    best_labels = None
    for labels in _restricted_growth_partitions(len(vertices), k + 1):
        if any(labels[vidx[s]] == labels[vidx[t]] for s, t in commodities):
            continue
        weight = sum(w for u, v, w in graph.uedges
                     if labels[vidx[u]] != labels[vidx[v]])
        if weight < best_weight:
            best_weight = weight
            best_labels = labels
    if best_labels is None:
        raise ValueError("no partition separates all commodity pairs")
    cut = tuple((u, v) for u, v, w in graph.uedges
                if best_labels[vidx[u]] != best_labels[vidx[v]])
    # Independent verification: removal really disconnects every pair.
    removed = set(cut)
    remaining = [(u, v) for u, v, _ in graph.uedges if (u, v) not in removed]
    comp = _components(vertices, remaining)
    for s, t in commodities:
        assert comp[s] != comp[t], "multicut verification failed"
    return float(best_weight), cut


def min_cut_ratio_bruteforce(graph, commodities, limit=MAX_RATIO_VERTICES):
    """Minimum over vertex sets W of cut weight divided by the number of
    commodity pairs with endpoints on opposite sides of (W, V - W).

    Subsets separating no pair are skipped.
    """
    commodities = [tuple(p) for p in commodities]
    if not commodities:
        raise ValueError("at least one commodity required")
    for s, t in commodities:
        _check_terminals(graph, s, t)
    n_v = len(graph.vertices)
    if n_v > limit:
        raise SizeLimitError(
            f"{n_v} vertices exceed the enumeration limit of {limit}")
    masks, weights, free = _cut_weights_vectorized(graph, set(), set())
    idx = {v: i for i, v in enumerate(free)}
    separated = np.zeros(len(masks), dtype=np.int64)
    for s, t in commodities:
        bit_s = (masks >> idx[s]) & 1
        bit_t = (masks >> idx[t]) & 1
        separated = separated + (bit_s ^ bit_t)
    valid = separated > 0
    if not np.any(valid):
        raise ValueError("no vertex subset separates any commodity pair")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(valid, weights / separated, np.inf)
    best = int(np.argmin(ratio))
    partition = tuple(sorted(v for i, v in enumerate(free)
                             if (best >> i) & 1))
    return float(ratio[best]), partition


def s_connectivity(graph, terminals):
    """Least pairwise max-flow among a terminal set (its connectivity).

    Upper-bounds the number of edge-disjoint trees spanning the set.
    """
    terminals = list(terminals)
    if len(terminals) < 2:
        raise ValueError("terminal set must contain at least two vertices")
    _check_terminals(graph, *terminals)
    best = math.inf
    for a, b in itertools.combinations(terminals, 2):
        value, _ = max_flow(graph, a, b)
        best = min(best, value)
    return best


def _expand_multigraph(graph):
    """Expand integer edge weights into a list of parallel unit edges."""
    expanded = []
    for u, v, w in graph.uedges:
        mult = int(round(w))
        if abs(w - mult) > 1e-9 or mult < 0:
            raise ValueError(
                f"multigraph weights must be nonnegative integers, "
                f"got {w!r} on {{{u}, {v}}}")
        expanded.extend([(u, v)] * mult)
    return expanded


def steiner_packing_bruteforce(graph, terminals, limit=MAX_STEINER_EDGES):
    """Maximum number of edge-disjoint trees spanning ``terminals`` in a
    unit-capacity multigraph.

    ``graph`` is a WeightedUGraph whose integer weights count parallel
    edges.  Exhaustive: all tree-forming edge subsets are enumerated, then
    a best disjoint packing is found by memoized search over the remaining
    edge set, so the guard on the total parallel-edge count is strict.
    """
    terminals = set(terminals)
    if len(terminals) < 2:
        raise ValueError("terminal set must contain at least two vertices")
    _check_terminals(graph, *terminals)
    edge_list = _expand_multigraph(graph)
    m = len(edge_list)
    if m > limit:
        raise SizeLimitError(
            f"{m} parallel edges exceed the enumeration limit of {limit}")

    def is_s_tree(subset_idx):
        edges = [edge_list[i] for i in subset_idx]
        if not edges:
            return False
        verts = set()
        for u, v in edges:
            verts.add(u)
            verts.add(v)
        if not terminals <= verts:
            return False
        if len(edges) != len(verts) - 1:
            return False  # acyclic + connected needs exactly |V|-1 edges
        comp = _components(verts, edges)
        return len(set(comp.values())) == 1

    trees = []
    for r in range(1, m + 1):
        for subset in itertools.combinations(range(m), r):
            if is_s_tree(subset):
                mask = 0
                for i in subset:
                    mask |= 1 << i
                trees.append(mask)
    if not trees:
        return 0

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best_packing(available):
        best = 0
        for tree in trees:
            if tree & ~available:
                continue
            best = max(best, 1 + best_packing(available & ~tree))
        return best

    return best_packing((1 << m) - 1)
