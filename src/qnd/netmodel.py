"""Graph model of a quantum network with scalar per-channel weights.

A network is a directed multigraph whose edges carry a channel model: either
a pure-loss bosonic channel described by its transmittance, or explicit
ebits-per-use numbers (an upper weight from an entanglement measure and a
lower weight from an achievable capacity).  Flow and cut computations operate
on an undirected weighted graph derived from the network, where anti-parallel
directed edges are merged into a single undirected edge whose weight is the
usage-weighted sum of both directions.
"""

import enum
import json
import math
from dataclasses import dataclass

__all__ = [
    "Lossy",
    "Explicit",
    "ChannelModel",
    "Edge",
    "NetworkSpec",
    "WeightedUGraph",
    "Measure",
    "NetworkValidationError",
    "NetworkParseError",
    "channel_value",
    "esq_lossy_bound",
    "undirect",
    "parse_network",
    "serialize_network",
]


class NetworkValidationError(ValueError):
    """An invariant of the network model is violated."""


class NetworkParseError(ValueError):
    """A network document is malformed; the message carries the field path."""


class Measure(str, enum.Enum):
    """Which per-channel scalar to use as an edge weight."""

    UPPER_ENTANGLEMENT = "upper-entanglement"
    LOWER_CAPACITY = "lower-capacity"


@dataclass(frozen=True)
class Lossy:
    """Single-mode pure-loss channel with transmittance ``eta`` in [0, 1].

    For pure loss the relative-entropy upper weight and the achievable
    capacity coincide at ``-log2(1 - eta)``, so both measures return the
    same value.
    """

    eta: float

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise NetworkValidationError(
                f"eta out of range: {self.eta!r} (must be in [0, 1])")


@dataclass(frozen=True)
class Explicit:
    """Channel described by explicit scalar weights in ebits per use.

    ``E_upper`` is an upper weight (an entanglement measure of the channel)
    and ``Q_lower`` a lower weight (an achievable capacity).  A valid lower
    bound never exceeds a valid upper bound.
    """

    E_upper: float
    Q_lower: float

    def __post_init__(self):
        if not (self.Q_lower >= 0.0):
            raise NetworkValidationError(
                f"Q_lower must be >= 0, got {self.Q_lower!r}")
        if not (self.Q_lower <= self.E_upper):
            raise NetworkValidationError(
                f"Q_lower={self.Q_lower!r} exceeds E_upper={self.E_upper!r}")


ChannelModel = Lossy | Explicit


def channel_value(channel, measure, esq_lossy=False):
    """Scalar weight of a channel in ebits per use.

    Parameters
    ----------
    channel : Lossy or Explicit
    measure : Measure
        ``UPPER_ENTANGLEMENT`` selects the upper weight, ``LOWER_CAPACITY``
        the achievable lower weight.
    esq_lossy : bool
        Weight a lossy channel on the upper side with the squashed bound
        (see :func:`esq_lossy_bound`).

    Returns
    -------
    float
        Ebits per use.  A lossless channel (``eta == 1``) returns ``math.inf``
        as an explicit sentinel; there is no silent saturation.
    """
    measure = Measure(measure)
    if isinstance(channel, Lossy):
        if channel.eta == 1.0:
            return math.inf
        if esq_lossy and measure is Measure.UPPER_ENTANGLEMENT:
            return esq_lossy_bound(channel.eta)
        # Upper and lower weights coincide for pure loss.
        return -math.log2(1.0 - channel.eta)
    if isinstance(channel, Explicit):
        if measure is Measure.UPPER_ENTANGLEMENT:
            return channel.E_upper
        return channel.Q_lower
    raise TypeError(f"not a channel model: {channel!r}")


def esq_lossy_bound(eta):
    """Squashed-entanglement upper weight of a pure-loss channel.

    Returns ``log2((1 + eta) / (1 - eta))``, a looser alternative to the
    default upper weight of :func:`channel_value`, selectable in the bound
    computations of :mod:`qnd.capbounds`.

    Parameters
    ----------
    eta : float
        Transmittance in [0, 1); ``eta == 1`` raises, as the weight
        diverges.  :func:`channel_value` returns its ``math.inf`` sentinel
        for a lossless channel before calling this.
    """
    if not (0.0 <= eta <= 1.0):
        raise NetworkValidationError(
            f"eta out of range: {eta!r} (must be in [0, 1])")
    if eta == 1.0:
        raise NetworkValidationError(
            "squashed-entanglement weight diverges at eta = 1")
    return math.log2((1.0 + eta) / (1.0 - eta))


@dataclass(frozen=True)
class Edge:
    """Directed channel from ``tail`` to ``head`` with usage weight ``q``."""

    tail: str
    head: str
    channel: ChannelModel
    q: float = 1.0

    def __post_init__(self):
        if self.tail == self.head:
            raise NetworkValidationError(
                f"self-loop edge at node {self.tail!r}")
        if not (self.q >= 0.0):
            raise NetworkValidationError(
                f"usage weight q must be >= 0, got {self.q!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """A quantum network: nodes, directed channels, and optional tasks.

    ``commodities`` lists source/target pairs for multi-pair tasks and
    ``users`` the node set of a multipartite task.  Both are optional; the
    bound computations require whichever their task needs.
    """

    nodes: tuple
    edges: tuple
    commodities: tuple = ()
    users: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(
            self, "commodities",
            tuple((a, b) for a, b in self.commodities))
        if self.users is not None:
            object.__setattr__(self, "users", tuple(self.users))
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise NetworkValidationError("duplicate node identifiers")
        for e in self.edges:
            if not isinstance(e, Edge):
                raise NetworkValidationError(f"not an edge: {e!r}")
            for endpoint in (e.tail, e.head):
                if endpoint not in known:
                    raise NetworkValidationError(
                        f"edge endpoint {endpoint!r} is not a declared node")
        for a, b in self.commodities:
            for endpoint in (a, b):
                if endpoint not in known:
                    raise NetworkValidationError(
                        f"commodity endpoint {endpoint!r} is not a declared node")
        if self.users is not None:
            for u in self.users:
                if u not in known:
                    raise NetworkValidationError(
                        f"user {u!r} is not a declared node")


@dataclass(frozen=True)
class WeightedUGraph:
    """Undirected graph with nonnegative edge weights.

    Edges are stored as ``(u, v, weight)`` with ``u < v`` canonically, at most
    one edge per vertex pair.  Zero-weight edges are legal and retained; flow
    across them is forced to zero by the capacity constraints.
    """

    vertices: tuple
    uedges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        canon = []
        seen = set()
        known = set(self.vertices)
        for u, v, w in self.uedges:
            if u == v:
                raise NetworkValidationError(f"self-loop at {u!r}")
            if u not in known or v not in known:
                raise NetworkValidationError(
                    f"edge endpoint not a declared vertex: {u!r}, {v!r}")
            if not (w >= 0.0):
                raise NetworkValidationError(
                    f"negative edge weight {w!r} on {{{u!r}, {v!r}}}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise NetworkValidationError(
                    f"duplicate undirected edge {{{u!r}, {v!r}}}")
            seen.add(key)
            canon.append((key[0], key[1], float(w)))
        object.__setattr__(self, "uedges", tuple(canon))


def undirect(net, measure, esq_lossy=False):
    """Collapse a directed network into the undirected weighted graph used
    by all flow and cut computations.

    Each unordered node pair receives a single undirected edge whose weight
    is ``sum(q_e * value_e)`` over every directed edge between the pair in
    either direction; missing directions contribute zero.  Zero-weight edges
    are retained.

    Parameters
    ----------
    net : NetworkSpec
    measure : Measure
        Weighting of each channel.
    esq_lossy : bool
        Use the squashed-entanglement bound for lossy channels on the upper
        side (see :func:`esq_lossy_bound`).
    """
    weights = {}
    for e in net.edges:
        key = (e.tail, e.head) if e.tail < e.head else (e.head, e.tail)
        val = channel_value(e.channel, measure, esq_lossy=esq_lossy)
        contrib = e.q * val
        if val == math.inf:
            contrib = math.inf if e.q > 0 else 0.0
        prev = weights.get(key, 0.0)
        weights[key] = prev + contrib
    uedges = tuple((u, v, w) for (u, v), w in sorted(weights.items()))
    return WeightedUGraph(vertices=net.nodes, uedges=uedges)


# --- JSON document format -------------------------------------------------
#
# { "nodes": ["A", ...],
#   "edges": [{"from": "A", "to": "B",
#              "channel": {"type": "lossy", "eta": 0.5}
#                       | {"type": "explicit", "E": 2.0, "Q": 1.0},
#              "q": 1.0}, ...],
#   "commodities": [["A", "B"], ...],      optional
#   "users": ["A", "B", "C"] }             optional
#
# Unknown keys are rejected at every level.

_TOP_KEYS = {"nodes", "edges", "commodities", "users"}
_EDGE_KEYS = {"from", "to", "channel", "q"}


def _reject_unknown(obj, allowed, path):
    unknown = set(obj) - allowed
    if unknown:
        raise NetworkParseError(
            f"{path}: unknown key(s) {sorted(unknown)!r}")


def _require(obj, key, path):
    if key not in obj:
        raise NetworkParseError(f"{path}: missing required key {key!r}")
    return obj[key]


def _parse_channel(obj, path):
    if not isinstance(obj, dict):
        raise NetworkParseError(f"{path}: channel must be an object")
    kind = _require(obj, "type", path)
    if kind == "lossy":
        _reject_unknown(obj, {"type", "eta"}, path)
        eta = _require(obj, "eta", path)
        if not isinstance(eta, (int, float)) or isinstance(eta, bool):
            raise NetworkParseError(f"{path}.eta: must be a number")
        return Lossy(eta=float(eta))
    if kind == "explicit":
        _reject_unknown(obj, {"type", "E", "Q"}, path)
        e_upper = _require(obj, "E", path)
        q_lower = _require(obj, "Q", path)
        for name, val in (("E", e_upper), ("Q", q_lower)):
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise NetworkParseError(f"{path}.{name}: must be a number")
        return Explicit(E_upper=float(e_upper), Q_lower=float(q_lower))
    raise NetworkParseError(
        f"{path}.type: unknown channel type {kind!r}")


def parse_network(text):
    """Parse and fully validate a JSON network document.

    Raises
    ------
    NetworkParseError
        Syntax errors (with line number) or schema violations (with the
        offending field path).  Unknown keys are rejected.
    NetworkValidationError
        Structurally well-formed documents that violate a model invariant;
        the message names the invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise NetworkParseError("top level: must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "top level")

    nodes = _require(doc, "nodes", "top level")
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise NetworkParseError("nodes: must be a list of strings")

    raw_edges = _require(doc, "edges", "top level")
    if not isinstance(raw_edges, list):
        raise NetworkParseError("edges: must be a list")
    edges = []
    for i, eobj in enumerate(raw_edges):
        path = f"edges[{i}]"
        if not isinstance(eobj, dict):
            raise NetworkParseError(f"{path}: must be an object")
        _reject_unknown(eobj, _EDGE_KEYS, path)
        tail = _require(eobj, "from", path)
        head = _require(eobj, "to", path)
        if not isinstance(tail, str) or not isinstance(head, str):
            raise NetworkParseError(f"{path}: 'from'/'to' must be strings")
        channel = _parse_channel(_require(eobj, "channel", path),
                                 f"{path}.channel")
        q = eobj.get("q", 1.0)
        if not isinstance(q, (int, float)) or isinstance(q, bool):
            raise NetworkParseError(f"{path}.q: must be a number")
        edges.append(Edge(tail=tail, head=head, channel=channel, q=float(q)))

    commodities = []
    if "commodities" in doc:
        raw = doc["commodities"]
        if not isinstance(raw, list):
            raise NetworkParseError("commodities: must be a list of pairs")
        for i, pair in enumerate(raw):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(p, str) for p in pair)):
                raise NetworkParseError(
                    f"commodities[{i}]: must be a pair of node names")
            commodities.append((pair[0], pair[1]))

    users = None
    if "users" in doc:
        raw = doc["users"]
        if not isinstance(raw, list) or not all(isinstance(u, str) for u in raw):
            raise NetworkParseError("users: must be a list of node names")
        users = tuple(raw)

    return NetworkSpec(nodes=tuple(nodes), edges=tuple(edges),
                       commodities=tuple(commodities), users=users)


def serialize_network(net):
    """Serialize a NetworkSpec to the JSON document format.

    ``parse_network(serialize_network(net)) == net`` for every valid network.
    """
    def channel_obj(ch):
        if isinstance(ch, Lossy):
            return {"type": "lossy", "eta": ch.eta}
        return {"type": "explicit", "E": ch.E_upper, "Q": ch.Q_lower}

    doc = {
        "nodes": list(net.nodes),
        "edges": [
            {"from": e.tail, "to": e.head,
             "channel": channel_obj(e.channel), "q": e.q}
            for e in net.edges
        ],
    }
    if net.commodities:
        doc["commodities"] = [list(pair) for pair in net.commodities]
    if net.users is not None:
        doc["users"] = list(net.users)
    return json.dumps(doc, indent=2, sort_keys=False)
