"""Capacity sandwiches for entanglement and key distribution over networks.

Every task (bipartite, multi-pair, multipartite) gets a lower and an upper
bound, both computed as flow maximizations on the undirected weighted graph
of the network, which :mod:`qnd.netmodel` derives from one value per
channel and side: the lower bound values each channel by its achievable
capacity, the upper bound by an entanglement measure.
Three usage accountings are supported: the network's own per-edge usage
weights (FIXED_Q), one use of every channel per network use
(PER_NETWORK_USE), and a joint optimization of the usage frequencies under a
unit budget (PER_CHANNEL_USE), one nonnegative frequency per directed edge
optimized together with the flow, never in a nested max-min loop.

This module only weights the graph and reports: the programs are built,
solved and verified by :mod:`qnd.flows`, so every bound rests on a flow
assignment that passed :meth:`qnd.flows.FlowAssignment.verify`.  Most are
combinatorial: a bipartite bound is one max-flow on fixed weights and one
shortest path under PER_CHANNEL_USE, a multipartite bound on fixed weights
one max-flow per hub pair, and a PER_CHANNEL_USE multi-pair bound one
shortest path per pair.  Two stay linear programs: multi-pair bounds on
fixed weights, whose pairs compete for shared capacity, and PER_CHANNEL_USE
multipartite bounds, whose one usage vector serves every pair's private
capacity copy.  When every channel has the same lower and upper value, as
pure-loss channels do unless the squashed upper weight is asked for, the
one program is built, solved and verified once for both bounds.

Multipartite bounds need the least pairwise flow among k users, which is
a connectivity, not a concurrent flow.  Pairwise max-flow values obey
lambda(a, b) >= min(lambda(a, c), lambda(c, b)) (Gomory & Hu,
"Multi-terminal network flows", J. SIAM 1961), so the least over all
k(k-1)/2 pairs equals the least over the k-1 hub pairs (u0, u) from one
user u0.  This holds for every usage vector q, hence also under the joint
optimization of PER_CHANNEL_USE, and the programs carry k-1 private
commodities instead of k(k-1)/2.

Multicommodity upper bounds carry an unavoidable O(log k) gap to the
corresponding cut quantity; the gap factor is reported symbolically in the
``slack_note`` and a numeric slack factor (default 1) may be applied.
"""

import enum
import math
from dataclasses import dataclass

from .flows import FlowObjective, _solve_flow
from .netmodel import (Measure, NetworkValidationError, _collapse,
                       channel_value)

__all__ = [
    "UsageUnit",
    "BoundReport",
    "bipartite_bounds",
    "multipair_bounds",
    "multipartite_bounds",
]

_REPORT_TOL = 1e-9
# Constants (g3, g4) of the tree-packing lower bound on multipartite rates:
# the conjectured (1/2, 0).  The proven alternatives are Lau's (1/26, 0)
# and, for terminal sets leaving r non-terminals, (r/2, 1).  Only g3 enters
# the asymptotic rate; g4 is recorded in the annotation.
_TREE_G3 = 0.5
_TREE_G4 = 0.0


class UsageUnit(str, enum.Enum):
    PER_CHANNEL_USE = "channel-use"
    PER_NETWORK_USE = "network-use"
    FIXED_Q = "fixed-q"


@dataclass(frozen=True)
class BoundReport:
    """A lower/upper sandwich on a network capacity, in ebits per unit.

    ``q_opt`` is the optimized usage-frequency vector (one entry per
    directed edge of the network, summing to one) when the unit is
    PER_CHANNEL_USE; it is the optimizer of the lower-bound program, so
    feeding it back as FIXED_Q reproduces the lower value, except with a
    lossless (eta = 1) channel: PER_CHANNEL_USE leaves that edge unbounded
    at any q, q = 0 included, and FIXED_Q weights it 0 at q = 0 (see
    ``undirect``).  ``slack_note`` carries the symbolic gap factors that
    the upper bound is subject to.
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


def _solve_sandwich(net, unit, pairs, objective, esq_lossy_upper,
                    shared_capacity=True):
    """The lower and the upper flow program of a capacity bound, solved and
    verified by :mod:`qnd.flows`.

    Each channel is valued once per side, by ``LOWER_CAPACITY`` and by
    ``UPPER_SQUASHED`` or ``UPPER_ENTANGLEMENT`` as ``esq_lossy_upper``
    says, and :mod:`qnd.netmodel` collapses each side's values into the
    graph of its program.  FIXED_Q weights each channel by its own ``q``,
    PER_NETWORK_USE by 1, and PER_CHANNEL_USE hands the per-channel values
    to the program as usage terms, one frequency variable per directed
    edge.  With ``shared_capacity`` False each pair gets its own private
    copy of the capacity constraints.

    When the two value lists are equal, as on pure-loss channels without
    the squashed upper weight, only the lower program is built, solved and
    verified, and its value is both bounds; every solver is deterministic,
    so this is the value a second solve would return.

    Returns (lower, upper, q_opt), ``q_opt`` being the usage frequencies
    that attain the lower value, or None unless PER_CHANNEL_USE.
    """
    upper_measure = (Measure.UPPER_SQUASHED if esq_lossy_upper
                     else Measure.UPPER_ENTANGLEMENT)
    sides = [[channel_value(e.channel, measure) for e in net.edges]
             for measure in (Measure.LOWER_CAPACITY, upper_measure)]
    if sides[1] == sides[0]:
        del sides[1]
    weights = [1.0 if unit is UsageUnit.PER_NETWORK_USE else e.q
               for e in net.edges]
    solved = []
    for values in sides:
        graph, terms = _collapse(net, values, weights)
        solved.append(_solve_flow(
            graph, pairs, objective,
            terms if unit is UsageUnit.PER_CHANNEL_USE else None,
            shared_capacity))
    (lower, _, q_opt), (upper, _, _) = solved[0], solved[-1]
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
    multicuts / cut ratios, which is recorded in the slack note.  A finite
    numeric ``slack_factor`` >= 1 may be applied to widen the upper bound;
    the default 1 reports the raw flow value.  Pairs sharing an endpoint
    are accepted.
    """
    pairs = [tuple(p) for p in pairs]
    if not pairs:
        raise ValueError("at least one pair required")
    for s, t in pairs:
        if s == t:
            raise NetworkValidationError(f"pair endpoints coincide: {s!r}")
        _require_nodes(net, (s, t))
    if not 1.0 <= slack_factor < math.inf:
        raise ValueError("slack_factor must be finite and >= 1")
    objective = FlowObjective(objective)
    unit = UsageUnit(unit)
    k = len(pairs)
    lower, upper, q_opt = _solve_sandwich(net, unit, pairs, objective,
                                          esq_lossy_upper)
    gap = "g1(k)" if objective is FlowObjective.TOTAL else "g2(k)"
    note = (f"upper holds up to the multicommodity gap {gap} = O(log k), "
            f"k={k}; numeric slack factor {slack_factor:g} applied")
    return BoundReport(lower=lower, upper=upper * slack_factor, unit=unit,
                       q_opt=q_opt, slack_note=note)


def multipartite_bounds(net, users=None, unit=UsageUnit.PER_NETWORK_USE,
                        esq_lossy_upper=False):
    """Capacity sandwich for distributing multipartite entanglement among
    a user set.

    Both bounds maximize the least pairwise flow among the users, each
    pair solving its own private copy of the capacity constraints (the
    pairs do not compete: the quantity is a connectivity, not a concurrent
    flow).  Only the k-1 hub pairs ``(users[0], u)`` are solved: by the
    Gomory-Hu inequality lambda(a, b) >= min(lambda(a, c), lambda(c, b)),
    their least flow equals the least over all k(k-1)/2 pairs for every
    usage vector q, so both sides keep their value under every usage
    unit, PER_CHANNEL_USE's maximization over q included.  The lower bound
    is scaled by the conjectured tree-packing constant g3 = 1/2, reflecting
    that spanning trees consume edges faster than pairwise paths do.

    ``users`` defaults to ``net.users``; a missing or one-node user set,
    or one that repeats a node, raises NetworkValidationError.
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
    if len(set(users)) < len(users):
        raise NetworkValidationError("user set repeats a node")
    _require_nodes(net, users)
    unit = UsageUnit(unit)
    pairs = [(users[0], u) for u in users[1:]]
    lower_raw, upper, q_opt = _solve_sandwich(
        net, unit, pairs, FlowObjective.WORST, esq_lossy_upper,
        shared_capacity=False)
    lower = _TREE_G3 * lower_raw
    note = (f"lower = g3 * least pairwise flow with g3={_TREE_G3:g} "
            f"(g4={_TREE_G4:g} dropped in the asymptotic rate); "
            f"upper = least pairwise cut bound")
    return BoundReport(lower=lower, upper=upper, unit=unit, q_opt=q_opt,
                       slack_note=note)
