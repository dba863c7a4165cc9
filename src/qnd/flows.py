"""Flow and cut computations on undirected weighted graphs.

One function, :func:`_solve_flow`, solves every flow program of the
package, including the capacity programs of :mod:`qnd.capbounds` with
their per-pair capacity copies and optimized usage frequencies, and picks
the solver from the program's structure.  Single-commodity max-flow, and
flows whose commodities have private capacity copies, are Edmonds-Karp
max-flows (Edmonds & Karp, J. ACM 1972).  Usage frequencies under a unit
budget with shared capacity are shortest paths.  Two classes stay linear
programs solved by :mod:`qnd.lpcore`: multicommodity total / worst-case
concurrent flow on fixed shared capacity, and usage frequencies shared by
private capacity copies.  One helper, :func:`_incidence`, indexes each
graph and orients every edge from ``u`` to ``v`` as ``graph.uedges`` lists
it; the max-flow and shortest-path arcs, the LP rows (filled in one column
block per commodity) and the verification all read that orientation.
Every solution returned has passed :meth:`FlowAssignment.verify`, a
solver-independent re-check of capacity and conservation.  Terminal-set
connectivity is the least of the max-flows from one terminal to the others.
Alongside them live small brute-force oracles, minimum cut, minimum
multicut, minimum cut ratio, and Steiner tree packing, which are exact on
small instances and serve as independent cross-checks of the flow results
(max-flow equals min-cut, total flow is at most the multicut weight,
worst-case flow at most the cut ratio).

Flows are real-valued throughout; integrality appears only inside the
brute-force tree-packing oracle.
"""

import enum
import functools
import heapq
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

    def verify(self, graph, shared_capacity=True):
        """Re-verify capacity and conservation against ``graph``, within
        ``_VERIFY_TOL``.

        Raises :class:`FlowVerificationError`, an ``AssertionError``, on
        violation.  With ``shared_capacity`` True the summed load
        ``sum_i (f_uv + f_vu)`` must fit the edge weight; with False each
        commodity is checked against the full edge weight separately (the
        regime of independent per-pair flow problems).
        """
        tol = _VERIFY_TOL
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
        index, tails, heads = _incidence(graph.vertices, self.edges)
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


def _incidence(vertices, edges):
    """Vertex index of ``vertices``, and the tail and head index of each
    ``(u, v, ...)`` edge of ``edges``, which is oriented from ``u`` to
    ``v``."""
    index = {v: n for n, v in enumerate(vertices)}
    tails = np.array([index[e[0]] for e in edges], dtype=int)
    heads = np.array([index[e[1]] for e in edges], dtype=int)
    return index, tails, heads


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
    edge; conservation rows commodity-major, then by vertex.

    Returns ``(lp, q_offset, source_rows)``: ``source_rows[i] @ x`` is the
    net outflow of commodity ``i`` from its source.
    """
    index, tails, heads = _incidence(graph.vertices, graph.uedges)
    n_v, n_e, k = len(graph.vertices), len(graph.uedges), len(commodities)
    n_flow = 2 * n_e * k
    worst = FlowObjective(objective) is FlowObjective.WORST
    n_q = sum(len(terms) for terms in usage_terms or ())
    q_offset = n_flow + (1 if worst else 0)
    n = q_offset + n_q
    own = np.arange(k)[:, None]  # each commodity's own column block

    def flow_columns(rows):
        """The flow columns of ``rows`` viewed as (commodity, edge, arc)."""
        return rows[..., :n_flow].reshape(*rows.shape[:-1], k, n_e, 2)

    # Net outflow of commodity i at every vertex, in its own column block.
    net = np.zeros((k, n_v, n))
    flow_columns(net)[own, tails, own, np.arange(n_e)] = (1.0, -1.0)
    flow_columns(net)[own, heads, own, np.arange(n_e)] = (-1.0, 1.0)
    ends = np.array([[index[s], index[t]] for s, t in commodities])
    source_rows = net[own[:, 0], ends[:, 0]]
    inner = np.tile(np.bincount(np.concatenate([tails, heads]),
                                minlength=n_v) > 0, (k, 1))
    inner[own, ends] = False
    rows_eq, rhs_eq = [net[inner]], [0.0] * np.count_nonzero(inner)

    # Usage rows move every term to the left: their bound is the capacity
    # at q = 0, which is 0 or unbounded.
    bound = [w for _, _, w in graph.uedges] if usage_terms is None else [
        _usage_capacity(terms, [0.0] * n_q) for terms in usage_terms]
    capped = [j for j, w in enumerate(bound) if not math.isinf(w)]
    n_groups = 1 if shared_capacity else k
    group = np.zeros_like(own) if shared_capacity else own
    capacity = np.zeros((n_groups, len(capped), n))
    flow_columns(capacity)[group, np.arange(len(capped)), own, capped] = 1.0
    if usage_terms is not None:
        for r, j in enumerate(capped):
            for q_idx, val in usage_terms[j]:
                capacity[:, r, q_offset + q_idx] = -val
        budget = np.zeros((1, n))
        budget[0, q_offset:] = 1.0
        rows_eq.append(budget)
        rhs_eq.append(1.0)

    rows_ineq = [capacity.reshape(-1, n)]
    rhs_ineq = [bound[j] for j in capped] * n_groups
    if worst:
        # The slack variable is at most every commodity's net outflow.
        c = np.zeros(n)
        c[n_flow] = 1.0
        rows_ineq.append(c - source_rows)
        rhs_ineq += [0.0] * k
    else:
        c = source_rows.sum(axis=0)

    lp = lpcore.from_inequalities(c, np.vstack(rows_ineq), np.array(rhs_ineq),
                                  np.vstack(rows_eq), np.array(rhs_eq))
    return lp, q_offset, source_rows


def _usage_capacity(terms, q):
    """Capacity of one edge under usage frequencies ``q``, as the program
    sees it: unbounded as soon as one channel on the edge is lossless."""
    if any(math.isinf(val) for _, val in terms):
        return math.inf
    return sum(val * q[q_idx] for q_idx, val in terms)


def _adjacency(graph):
    """Vertex indices of ``graph`` and, per vertex, its ``(edge, neighbour,
    sign)`` arcs; ``sign`` is +1 along the edge's ``(u, v)`` direction."""
    index, tails, heads = _incidence(graph.vertices, graph.uedges)
    adj = [[] for _ in graph.vertices]
    for j, (u, v) in enumerate(zip(tails.tolist(), heads.tolist())):
        adj[u].append((j, v, 1))
        adj[v].append((j, u, -1))
    return index, adj


def _trace(parent, t):
    """The ``(edge, sign)`` arcs of the tree path ending at ``t``."""
    path = []
    while parent[t] is not None:
        t, j, sign = parent[t]
        path.append((j, sign))
    return path


def _augmenting_path(adj, cap, flow, s, t):
    """A fewest-arc s-t path of positive residual capacity (breadth-first),
    or None.  Edge ``j`` carries the signed flow ``flow[j]``, so an arc of
    sign ``sign`` has residual capacity ``cap[j] - sign * flow[j]``."""
    parent = {s: None}
    frontier = [s]
    while frontier:
        reached = []
        for u in frontier:
            for j, v, sign in adj[u]:
                if v not in parent and cap[j] - sign * flow[j] > 0.0:
                    parent[v] = (u, j, sign)
                    if v == t:
                        return _trace(parent, t)
                    reached.append(v)
        frontier = reached
    return None


def _edmonds_karp(adj, cap, s, t):
    """Maximum s-t flow by shortest augmenting paths (Edmonds & Karp,
    J. ACM 1972), which end after O(VE) augmentations whatever the
    capacities: ``(value, signed edge flows)``.

    A pair joined by infinite edges alone is unbounded: it returns
    ``math.inf`` and one unit of flow along such a path.
    """
    flow = [0.0] * len(cap)
    value = 0.0
    while (path := _augmenting_path(adj, cap, flow, s, t)) is not None:
        residual = [cap[j] - sign * flow[j] for j, sign in path]
        delta = min(residual)
        if math.isinf(delta):
            unit = [0.0] * len(cap)
            for j, sign in path:
                unit[j] = float(sign)
            return math.inf, unit
        for (j, sign), r in zip(path, residual):
            # Saturate each bottleneck arc exactly: a rounding residue left
            # on it would be found and augmented again.
            flow[j] = sign * cap[j] if r == delta else flow[j] + sign * delta
        value += delta
    return value, flow


def _max_flows(graph, commodities, objective, usage_terms, shared_capacity):
    """Fixed weights, and one commodity or private capacity copies: one
    Edmonds-Karp max-flow per commodity.

    The value is the sum of the commodity values for TOTAL and the least
    one for WORST.  Under WORST an unbounded commodity does not set the
    least: it carries that least value along its infinite edges, and the
    program is unbounded only when every commodity is.
    """
    index, adj = _adjacency(graph)
    cap = [w for _, _, w in graph.uedges]
    solved = [_edmonds_karp(adj, cap, index[s], index[t])
              for s, t in commodities]
    values = np.array([v for v, _ in solved])
    if FlowObjective(objective) is FlowObjective.TOTAL:
        value = float(values.sum())
    else:
        value = float(values.min())
    if math.isinf(value):
        return None
    signed = np.array([f for _, f in solved]).reshape(len(solved), len(cap))
    unbounded = np.isinf(values)
    signed[unbounded] *= value
    values[unbounded] = value
    flows = np.stack([np.maximum(signed, 0.0), np.maximum(-signed, 0.0)],
                     axis=2)
    return value, flows, tuple(values.tolist()), None


def _shortest_path(adj, length, s, t):
    """Dijkstra: ``(d, arcs)`` of a shortest s-t path under nonnegative
    edge lengths, or ``(math.inf, None)`` when ``t`` is unreachable."""
    dist = {s: 0.0}
    parent = {s: None}
    heap = [(0.0, s)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u == t:
            return d, _trace(parent, t)
        if u in done:
            continue
        done.add(u)
        for j, v, sign in adj[u]:
            reach = d + length[j]
            if reach < dist.get(v, math.inf):
                dist[v] = reach
                parent[v] = (u, j, sign)
                heapq.heappush(heap, (reach, v))
    return math.inf, None


def _shortest_paths(graph, commodities, objective, usage_terms,
                    shared_capacity):
    """Usage frequencies under a unit budget, with shared capacity, by
    shortest paths.

    Flow F over a channel of value w takes F / w of the budget, least on
    the best channel of its edge, so a unit of flow on a path takes its
    length d under edge lengths 1 / (best value): 0 over a lossless
    channel, infinite over an edge of value 0.  TOTAL spends the budget on
    the nearest commodity, F = 1 / min d_i; WORST routes the same F for
    every commodity, F = 1 / sum d_i.  ``q`` puts F times the length on the
    best channel of each path edge, the lowest channel index among equals,
    and the whole budget on channel 0 when F = 0 (every q attains 0).
    """
    index, adj = _adjacency(graph)
    best, length = [], []
    for terms in usage_terms:
        q_idx, val = min(terms, key=lambda term: (-term[1], term[0]))
        best.append(q_idx)
        length.append(0.0 if math.isinf(val)
                      else 1.0 / val if val > 0.0 else math.inf)
    routes = [_shortest_path(adj, length, index[s], index[t])
              for s, t in commodities]
    d = [dist for dist, _ in routes]
    if FlowObjective(objective) is FlowObjective.TOTAL:
        nearest = d.index(min(d))
        carried = [i == nearest for i in range(len(routes))]
        cost = d[nearest]
    else:
        carried = [True] * len(routes)
        cost = sum(d)
    if cost == 0.0:
        return None
    value = 1.0 / cost
    flows = np.zeros((len(routes), len(graph.uedges), 2))
    q = [0.0] * sum(len(terms) for terms in usage_terms)
    if value == 0.0:
        q[0] = 1.0
    else:
        for i, (_, path) in enumerate(routes):
            if not carried[i]:
                continue
            for j, sign in path:
                flows[i, j, 0 if sign > 0 else 1] += value
                q[best[j]] += value * length[j]
    values = tuple(value if c else 0.0 for c in carried)
    return value, flows, values, tuple(q)


def _lp_flows(graph, commodities, objective, usage_terms, shared_capacity):
    """Any flow program, as the LP of :func:`_build_multiflow_lp` solved by
    :mod:`qnd.lpcore`; None when it is unbounded."""
    lp, q_offset, source_rows = _build_multiflow_lp(
        graph, commodities, objective, usage_terms, shared_capacity)
    result = lpcore.solve(lp)
    if result.status is lpcore.LPStatus.UNBOUNDED:
        return None
    if result.status is not lpcore.LPStatus.OPTIMAL:
        raise lpcore.LPNumericError(
            f"flow LP unexpectedly {result.status.value}")
    x = result.solution[:lp.n_structural]
    k = len(commodities)
    flows = x[:2 * len(graph.uedges) * k].reshape(k, -1, 2).copy()
    values = tuple(float(row @ x) for row in source_rows)
    q = None
    if usage_terms is not None:
        # Frequencies are nonnegative; the solver's float noise is not
        # reported as a negative one.
        q = tuple(float(v) if v > 0.0 else 0.0 for v in x[q_offset:])
    return float(result.value), flows, values, q


def _solver(commodities, usage_terms, shared_capacity):
    """The solver of a flow program, picked from its structure: max-flow
    on fixed weights with one commodity or private capacity copies,
    shortest paths for usage frequencies with shared capacity, and the LP
    where commodities compete for fixed shared capacity or one usage
    vector serves every private copy."""
    if usage_terms is None:
        if len(commodities) == 1 or not shared_capacity:
            return _max_flows
    elif shared_capacity:
        return _shortest_paths
    return _lp_flows


def _solve_flow(graph, commodities, objective, usage_terms=None,
                shared_capacity=True):
    """Solve and verify one flow program (see :func:`_build_multiflow_lp`
    for the arguments).

    The program's structure picks the solver (:func:`_solver`).  Returns
    ``(value, assignment, q)`` with ``q`` the optimized usage frequencies
    when ``usage_terms`` is given, else None.  The assignment is verified
    against the capacities the program enforced: the graph weights, or the
    usage terms evaluated at ``q``.  An unbounded program, only possible
    through infinite capacities, returns ``(math.inf, None, None)``.
    """
    commodities = tuple(tuple(p) for p in commodities)
    k = len(commodities)
    if not graph.uedges:
        assignment = FlowAssignment(edges=(), commodities=commodities,
                                    flows=np.zeros((k, 0, 2)),
                                    values=(0.0,) * k)
        return 0.0, assignment, None
    solve = _solver(commodities, usage_terms, shared_capacity)
    solved = solve(graph, commodities, objective, usage_terms,
                   shared_capacity)
    if solved is None:
        return math.inf, None, None
    value, flows, values, q = solved
    assignment = FlowAssignment(
        edges=tuple((u, v) for u, v, _ in graph.uedges),
        commodities=commodities, flows=flows, values=values)
    capacities = graph
    if usage_terms is not None:
        capacities = WeightedUGraph(
            vertices=graph.vertices,
            uedges=tuple((u, v, _usage_capacity(terms, q))
                         for (u, v, _), terms in zip(graph.uedges,
                                                     usage_terms)))
    assignment.verify(capacities, shared_capacity=shared_capacity)
    return value, assignment, q


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

    Returns (mask array, weight array indexed by mask, mask bit of each
    free vertex).  ``fixed_in`` vertices are always inside W, ``fixed_out``
    always outside.
    """
    free = [v for v in graph.vertices
            if v not in fixed_in and v not in fixed_out]
    bits = {v: i for i, v in enumerate(free)}
    n_masks = 1 << len(free)
    masks = np.arange(n_masks, dtype=np.int64)
    weights = np.zeros(n_masks)

    def side(v):
        if v in fixed_in:
            return np.ones(n_masks, dtype=bool)
        if v in fixed_out:
            return np.zeros(n_masks, dtype=bool)
        return ((masks >> bits[v]) & 1).astype(bool)

    for u, v, w in graph.uedges:
        crossing = side(u) ^ side(v)
        if math.isinf(w):
            weights = np.where(crossing, np.inf, weights)
        else:
            weights = weights + np.where(crossing, w, 0.0)
    return masks, weights, bits


def min_cut_bruteforce(graph, s, t):
    """Minimum-weight s/t cut by enumerating all vertex bipartitions, on
    at most ``MAX_CUT_VERTICES`` vertices.

    Ties are broken toward the lexicographically smallest vertex subset
    (compared as the sorted tuple of member names) for reproducibility.
    """
    _check_terminals(graph, s, t)
    if s == t:
        raise ValueError("source and target must differ")
    if len(graph.vertices) > MAX_CUT_VERTICES:
        raise SizeLimitError(
            f"{len(graph.vertices)} vertices exceed the enumeration "
            f"limit of {MAX_CUT_VERTICES}")
    masks, weights, bits = _cut_weights_vectorized(graph, {s}, {t})
    best = weights.min()
    candidates = np.nonzero(weights <= best)[0]

    def members(mask):
        side = [s] + [v for v, i in bits.items() if (mask >> i) & 1]
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


def min_multicut_bruteforce(graph, commodities):
    """Minimum-weight edge set disconnecting every commodity pair, on at
    most ``MAX_MULTICUT_EDGES`` edges.

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
    if len(graph.uedges) > MAX_MULTICUT_EDGES:
        raise SizeLimitError(
            f"{len(graph.uedges)} edges exceed the enumeration limit "
            f"of {MAX_MULTICUT_EDGES}")
    if not commodities:
        return 0.0, ()
    index, tails, heads = _incidence(graph.vertices, graph.uedges)
    ends = list(zip(tails.tolist(), heads.tolist()))
    pairs = [(index[s], index[t]) for s, t in commodities]
    k = len(commodities)
    best_weight = math.inf
    best_labels = None
    for labels in _restricted_growth_partitions(len(index), k + 1):
        if any(labels[s] == labels[t] for s, t in pairs):
            continue
        weight = sum(w for (a, b), (_, _, w) in zip(ends, graph.uedges)
                     if labels[a] != labels[b])
        if weight < best_weight:
            best_weight = weight
            best_labels = labels
    if best_labels is None:
        raise ValueError("no partition separates all commodity pairs")
    cut = tuple((u, v) for (a, b), (u, v, _) in zip(ends, graph.uedges)
                if best_labels[a] != best_labels[b])
    # Independent verification: removal really disconnects every pair.
    removed = set(cut)
    remaining = [(u, v) for u, v, _ in graph.uedges if (u, v) not in removed]
    comp = _components(graph.vertices, remaining)
    if any(comp[s] == comp[t] for s, t in commodities):
        raise AssertionError("multicut verification failed")
    return float(best_weight), cut


def min_cut_ratio_bruteforce(graph, commodities):
    """Minimum over vertex sets W of cut weight divided by the number of
    commodity pairs with endpoints on opposite sides of (W, V - W).

    Subsets separating no pair are skipped.  At most
    ``MAX_RATIO_VERTICES`` vertices.
    """
    commodities = [tuple(p) for p in commodities]
    if not commodities:
        raise ValueError("at least one commodity required")
    for s, t in commodities:
        _check_terminals(graph, s, t)
    n_v = len(graph.vertices)
    if n_v > MAX_RATIO_VERTICES:
        raise SizeLimitError(f"{n_v} vertices exceed the enumeration limit "
                             f"of {MAX_RATIO_VERTICES}")
    masks, weights, bits = _cut_weights_vectorized(graph, set(), set())
    separated = np.zeros(len(masks), dtype=np.int64)
    for s, t in commodities:
        bit_s = (masks >> bits[s]) & 1
        bit_t = (masks >> bits[t]) & 1
        separated = separated + (bit_s ^ bit_t)
    valid = separated > 0
    if not np.any(valid):
        raise ValueError("no vertex subset separates any commodity pair")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(valid, weights / separated, np.inf)
    best = int(np.argmin(ratio))
    partition = tuple(sorted(v for v, i in bits.items()
                             if (best >> i) & 1))
    return float(ratio[best]), partition


def s_connectivity(graph, terminals):
    """Least pairwise max-flow among a terminal set (its connectivity).

    Upper-bounds the number of edge-disjoint trees spanning the set.  The
    k - 1 max-flows from the first terminal suffice: ``maxflow(a, b) >=
    min(maxflow(a, h), maxflow(h, b))`` (Gomory & Hu, J. SIAM 1961).
    """
    terminals = list(terminals)
    if len(terminals) < 2:
        raise ValueError("terminal set must contain at least two vertices")
    _check_terminals(graph, *terminals)
    if len(set(terminals)) < len(terminals):
        raise ValueError("terminal set repeats a vertex")
    hub, *others = terminals
    value, _, _ = _solve_flow(graph, [(hub, t) for t in others],
                              FlowObjective.WORST, shared_capacity=False)
    return value


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


def steiner_packing_bruteforce(graph, terminals):
    """Maximum number of edge-disjoint trees spanning ``terminals`` in a
    unit-capacity multigraph.

    ``graph`` is a WeightedUGraph whose integer weights count parallel
    edges.  Exhaustive: all tree-forming edge subsets are enumerated, then
    a best disjoint packing is found by memoized search over the remaining
    edge set, so the guard of ``MAX_STEINER_EDGES`` on the total
    parallel-edge count is strict.
    """
    terminals = set(terminals)
    if len(terminals) < 2:
        raise ValueError("terminal set must contain at least two vertices")
    _check_terminals(graph, *terminals)
    edge_list = _expand_multigraph(graph)
    m = len(edge_list)
    if m > MAX_STEINER_EDGES:
        raise SizeLimitError(f"{m} parallel edges exceed the enumeration "
                             f"limit of {MAX_STEINER_EDGES}")

    def is_s_tree(subset_idx):
        edges = [edge_list[i] for i in subset_idx]
        if not edges:
            return False
        verts = {x for edge in edges for x in edge}
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
                trees.append(sum(1 << i for i in subset))
    if not trees:
        return 0

    @functools.lru_cache(maxsize=None)
    def best_packing(available):
        best = 0
        for tree in trees:
            if tree & ~available:
                continue
            best = max(best, 1 + best_packing(available & ~tree))
        return best

    return best_packing((1 << m) - 1)
