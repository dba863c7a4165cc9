"""Capacity sandwiches for entanglement and key distribution over networks.

Every task (bipartite, multi-pair, multipartite) gets a lower and an upper
bound, both computed as flow maximizations on the undirected weighted graph
of the network (:func:`qnd.netmodel.undirect`): the lower bound weights each
edge with achievable capacities, the upper bound with entanglement measures.
Three usage accountings are supported: the network's own per-edge usage
weights (FIXED_Q), one use of every channel per network use
(PER_NETWORK_USE), and a joint optimization of the usage frequencies under a
unit budget (PER_CHANNEL_USE), which adds one nonnegative variable per
directed edge and a single equality constraint to the flow program, never a
nested max-min loop.

This module only weights the graph and reports: the programs are built,
solved and verified by :mod:`qnd.flows`, so every bound rests on a flow
assignment that passed :meth:`qnd.flows.FlowAssignment.verify`.  When the
lower and the upper program of a sandwich are identical, as for pure-loss
channels, whose achievable capacity equals their entanglement upper
weight, that program is solved and verified once for both bounds.

Multicommodity upper bounds carry an unavoidable O(log k) gap to the
corresponding cut quantity; the gap factor is reported symbolically in the
``slack_note`` and a numeric slack factor (default 1) may be applied.
"""

import enum
import itertools
import math
from dataclasses import dataclass, replace

from .flows import FlowObjective, _solve_flow
from .netmodel import (Edge, Measure, NetworkValidationError,
                       channel_value, undirect)

__all__ = [
    "UsageUnit",
    "BoundReport",
    "TreePackingConstants",
    "bipartite_bounds",
    "multipair_bounds",
    "multipartite_bounds",
]

_REPORT_TOL = 1e-9


class UsageUnit(str, enum.Enum):
    PER_CHANNEL_USE = "channel-use"
    PER_NETWORK_USE = "network-use"
    FIXED_Q = "fixed-q"


@dataclass(frozen=True)
class TreePackingConstants:
    """Constants (g3, g4) of the tree-packing lower bound used for
    multipartite rates.  The default is the conjectured (1/2, 0); the
    proven alternatives are Lau's (1/26, 0) and, for terminal sets leaving
    r non-terminals, (r/2, 1).  Only g3 enters the asymptotic rate; g4 is
    recorded in the annotation."""

    g3: float = 0.5
    g4: float = 0.0


@dataclass(frozen=True)
class BoundReport:
    """A lower/upper sandwich on a network capacity, in ebits per unit.

    ``q_opt`` is the optimized usage-frequency vector (one entry per
    directed edge of the network, summing to one) when the unit is
    PER_CHANNEL_USE; it is the optimizer of the lower-bound program, so
    feeding it back as FIXED_Q reproduces the lower value.  ``slack_note``
    carries the symbolic gap factors that the upper bound is subject to.
    """

    lower: float
    upper: float
    unit: UsageUnit
    q_opt: tuple | None = None
    slack_note: str = ""

    def __post_init__(self):
        if not (self.lower <= self.upper + _REPORT_TOL
                or (math.isinf(self.lower) and math.isinf(self.upper))):
            raise ValueError(
                f"lower bound {self.lower!r} exceeds upper bound "
                f"{self.upper!r}")
        if self.q_opt is not None:
            object.__setattr__(self, "q_opt", tuple(self.q_opt))
            total = sum(self.q_opt)
            if abs(total - 1.0) > 1e-9 or min(self.q_opt) < -1e-9:
                raise ValueError("q_opt is not a probability vector")


def _require_nodes(net, nodes):
    for node in nodes:
        if node not in net.nodes:
            raise NetworkValidationError(
                f"node {node!r} is not in the network")


def _flow_program(net, unit, measure, esq_lossy):
    """The graph and, under PER_CHANNEL_USE, the usage terms of one side."""
    graph = undirect(net, measure, esq_lossy=esq_lossy)
    if unit is not UsageUnit.PER_CHANNEL_USE:
        return graph, None
    edge_index = {(u, v): j for j, (u, v, _) in enumerate(graph.uedges)}
    usage_terms = [[] for _ in graph.uedges]
    for q_idx, e in enumerate(net.edges):
        key = (min(e.tail, e.head), max(e.tail, e.head))
        usage_terms[edge_index[key]].append(
            (q_idx, channel_value(e.channel, measure, esq_lossy=esq_lossy)))
    return graph, usage_terms


def _solve_sandwich(net, unit, pairs, objective, esq_lossy_upper,
                    shared_capacity=True):
    """The lower and the upper flow LP of a capacity bound, solved and
    verified by :mod:`qnd.flows` on graphs of :func:`qnd.netmodel.undirect`.

    FIXED_Q weights each channel by its own ``q``, PER_NETWORK_USE by 1,
    and PER_CHANNEL_USE hands the per-channel values to the program as
    usage terms, one frequency variable per directed edge.  With
    ``shared_capacity`` False each pair gets its own private copy of the
    capacity constraints.

    Both programs are built first.  When they are identical, as on
    pure-loss channels without the squashed upper weight, the one program
    is solved and verified once and its value is both bounds; the solver
    is deterministic, so this is the value a second solve would return.

    Returns (lower, upper, q_opt), ``q_opt`` being the usage frequencies
    that attain the lower value, or None unless PER_CHANNEL_USE.
    """
    if unit is UsageUnit.PER_NETWORK_USE:
        net = replace(net, edges=tuple(Edge(e.tail, e.head, e.channel, 1.0)
                                       for e in net.edges))
    lower_program = _flow_program(net, unit, Measure.LOWER_CAPACITY, False)
    upper_program = _flow_program(net, unit, Measure.UPPER_ENTANGLEMENT,
                                  esq_lossy_upper)
    graph, usage_terms = lower_program
    lower, _, q_opt = _solve_flow(graph, pairs, objective, usage_terms,
                                  shared_capacity)
    if upper_program == lower_program:
        return lower, lower, q_opt
    graph, usage_terms = upper_program
    upper, _, _ = _solve_flow(graph, pairs, objective, usage_terms,
                              shared_capacity)
    return lower, upper, q_opt


def bipartite_bounds(net, a, b, unit=UsageUnit.PER_NETWORK_USE,
                     esq_lossy_upper=False):
    """Two-party capacity sandwich between nodes ``a`` and ``b``.

    The lower bound is the maximum flow under achievable-capacity weights,
    the upper bound the maximum flow under entanglement-measure weights
    (equivalently, by max-flow min-cut, the tightest cut bound).  On
    networks of pure-loss channels the two coincide.

    Parameters
    ----------
    net : NetworkSpec
    a, b : str
        Distinct nodes of ``net``.
    unit : UsageUnit
    esq_lossy_upper : bool
        Weight lossy channels with the looser squashed-entanglement bound
        on the upper side.
    """
    if a == b:
        raise NetworkValidationError("the two parties must be distinct nodes")
    _require_nodes(net, (a, b))
    unit = UsageUnit(unit)
    lower, upper, q_opt = _solve_sandwich(
        net, unit, [(a, b)], FlowObjective.TOTAL, esq_lossy_upper)
    return BoundReport(lower=lower, upper=upper, unit=unit, q_opt=q_opt,
                       slack_note="upper = tightest cut bound; "
                                  "lower = achievable routing flow")


def multipair_bounds(net, pairs, objective="total",
                     unit=UsageUnit.PER_NETWORK_USE, slack_factor=1.0,
                     esq_lossy_upper=False):
    """Concurrent multi-pair capacity sandwich.

    ``objective`` is ``"total"`` (sum of the pair rates) or ``"worst"``
    (least pair rate).  The upper bound is the respective multicommodity
    flow under entanglement weights; it certifies the capacity only up to
    the O(log k) gap factor (g1 for total, g2 for worst) between flows and
    multicuts / cut ratios, which is recorded in the slack note.  A numeric
    ``slack_factor`` >= 1 may be applied to widen the upper bound; the
    default 1 reports the raw flow value.  Pairs sharing an endpoint are
    accepted.
    """
    pairs = [tuple(p) for p in pairs]
    if not pairs:
        raise ValueError("at least one pair required")
    for s, t in pairs:
        if s == t:
            raise NetworkValidationError(f"pair endpoints coincide: {s!r}")
        _require_nodes(net, (s, t))
    if slack_factor < 1.0:
        raise ValueError("slack_factor must be >= 1")
    objective = str(objective)
    if objective not in ("total", "worst"):
        raise ValueError(f"unknown objective {objective!r}")
    unit = UsageUnit(unit)
    k = len(pairs)
    lower, upper, q_opt = _solve_sandwich(net, unit, pairs, objective,
                                          esq_lossy_upper)
    gap = "g1(k)" if objective == "total" else "g2(k)"
    note = (f"upper holds up to the multicommodity gap {gap} = O(log k), "
            f"k={k}; numeric slack factor {slack_factor:g} applied")
    return BoundReport(lower=lower, upper=upper * slack_factor, unit=unit,
                       q_opt=q_opt, slack_note=note)


def multipartite_bounds(net, users=None, unit=UsageUnit.PER_NETWORK_USE,
                        tree_constants=TreePackingConstants(),
                        esq_lossy_upper=False):
    """Capacity sandwich for distributing multipartite entanglement among
    a user set.

    Both bounds maximize the least pairwise flow among the users, each
    pair solving its own private copy of the capacity constraints (the
    pairs do not compete: the quantity is a connectivity, not a concurrent
    flow).  The lower bound is scaled by the tree-packing constant g3
    (default 1/2) reflecting that spanning trees consume edges faster than
    pairwise paths do.

    ``users`` defaults to ``net.users``; a missing or one-node user set
    raises NetworkValidationError.
    """
    if users is None:
        users = net.users
    if users is None:
        raise NetworkValidationError(
            "no user set given and the network declares none")
    users = list(users)
    if len(users) < 2:
        raise NetworkValidationError(
            "user set must contain at least two nodes")
    _require_nodes(net, users)
    unit = UsageUnit(unit)
    pairs = list(itertools.combinations(users, 2))
    lower_raw, upper, q_opt = _solve_sandwich(
        net, unit, pairs, FlowObjective.WORST, esq_lossy_upper,
        shared_capacity=False)
    g3 = tree_constants.g3
    lower = g3 * lower_raw
    note = (f"lower = g3 * least pairwise flow with g3={g3:g} "
            f"(g4={tree_constants.g4:g} dropped in the asymptotic rate); "
            f"upper = least pairwise cut bound")
    return BoundReport(lower=lower, upper=upper, unit=unit, q_opt=q_opt,
                       slack_note=note)
