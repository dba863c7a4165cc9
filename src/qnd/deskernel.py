"""Minimal discrete-event simulation kernel and a repeater-chain protocol
model running on it.

The kernel is the classic sequential loop: initialize the clock, the network
state, and the event list; then repeatedly pop the next event, advance the
clock, perform the event, update state and event list, and check the
termination condition.  Events are totally ordered by (time, scheduling
sequence), so a fixed seed replays an identical event trace; that
repeatability is the point of the single-queue design, and the optional
event-trace log hashes to a seed-stable fingerprint.

The chain model executes the same protocol language as the analytical
engines: a tree of combine units over generation leaves.  Each unit stores
the earlier of its two input links until the later arrives; with a cut-off
the stored link expires once its age would exceed ``tau``, resetting the
whole subtree (the identical restart the exact and sampling engines use).
Expiry events are scheduled when a link is stored, hence always precede
resolve events carrying the same timestamp.  An optional integer
classical-communication delay per swap shifts resolve events; with zero
delay the delivered (time, quality) statistics coincide with direct
Monte Carlo sampling of the protocol.
"""

import enum
import hashlib
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .disttrack import ChainProtocol, distill_output_w, distill_success_prob
from .montecarlo import SampleRecord, _geometric, _summarize, substream

__all__ = [
    "EventKind",
    "Event",
    "SimState",
    "EmptyQueueError",
    "schedule",
    "pop_next",
    "run_until",
    "ChainSimulation",
    "simulate_chain",
    "simulate_batch",
]


class EmptyQueueError(RuntimeError):
    """The event queue drained before the termination condition held."""


class EventKind(str, enum.Enum):
    GEN_ATTEMPT = "gen-attempt"
    SWAP_RESOLVE = "swap-resolve"
    CUTOFF_EXPIRE = "cutoff-expire"
    END = "end"


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled action: strict (time, sequence) order, sequence
    assigned at scheduling time."""

    time: int
    sequence: int
    kind: EventKind
    payload: tuple = ()


@dataclass
class SimState:
    """Clock, event queue, model registry, and bookkeeping of one run."""

    clock: int = 0
    queue: list = field(default_factory=list)
    registry: dict = field(default_factory=dict)
    rng: object = None
    stats: dict = field(default_factory=dict)
    handler: object = None
    trace: list | None = None
    _seq: int = 0


def schedule(state, time, kind, payload=()):
    """Append an event; never earlier than the current clock."""
    if time < state.clock:
        raise ValueError(f"cannot schedule at {time} before clock "
                         f"{state.clock}")
    event = Event(time=time, sequence=state._seq, kind=kind,
                  payload=payload)
    state._seq += 1
    heapq.heappush(state.queue, (event.time, event.sequence, event))
    return event


def pop_next(state):
    """Next event in (time, sequence) order; advances the clock."""
    if not state.queue:
        raise EmptyQueueError("event queue is empty")
    _, _, event = heapq.heappop(state.queue)
    state.clock = event.time
    return event


def run_until(state, condition):
    """Drive the main loop until ``condition(state)`` holds.

    Pops, advances the clock, performs the event through the state's
    handler, and re-checks the condition; raises EmptyQueueError if the
    queue drains first.
    """
    while not condition(state):
        event = pop_next(state)
        if state.trace is not None:
            state.trace.append(
                f"{event.time}\t{event.sequence}\t{event.kind.value}\t"
                f"{event.payload}")
        state.handler(state, event)
    return state


@dataclass(frozen=True)
class _Tree:
    """Static shape of a protocol tree of a given depth.

    Nodes are numbered level by level, leaves first: ids
    [offset(level), offset(level) + 2**(depth-level)) for level 0..depth.
    """

    n_leaves: int
    level: tuple
    parent: tuple
    sibling: tuple
    children: tuple
    subtree: tuple
    leaves_of: tuple


_TREE_CACHE = {}


def _tree_structure(depth):
    if depth in _TREE_CACHE:
        return _TREE_CACHE[depth]
    offsets = []
    total = 0
    for level in range(depth + 1):
        offsets.append(total)
        total += 2 ** (depth - level)
    level_of = [0] * total
    parent = [-1] * total
    sibling = [-1] * total
    children = [None] * total
    for level in range(depth + 1):
        for pos in range(2 ** (depth - level)):
            i = offsets[level] + pos
            level_of[i] = level
            if level < depth:
                parent[i] = offsets[level + 1] + pos // 2
                sibling[i] = offsets[level] + (pos ^ 1)
            if level > 0:
                children[i] = (offsets[level - 1] + 2 * pos,
                               offsets[level - 1] + 2 * pos + 1)
    subtree = [None] * total
    leaves_of = [None] * total
    for i in range(total):
        if level_of[i] == 0:
            subtree[i] = (i,)
            leaves_of[i] = (i,)
        else:
            a, b = children[i]
            subtree[i] = (i,) + subtree[a] + subtree[b]
            leaves_of[i] = leaves_of[a] + leaves_of[b]
    tree = _Tree(n_leaves=2 ** depth, level=tuple(level_of),
                 parent=tuple(parent), sibling=tuple(sibling),
                 children=tuple(children), subtree=tuple(subtree),
                 leaves_of=tuple(leaves_of))
    _TREE_CACHE[depth] = tree
    return tree


class ChainSimulation:
    """One seeded run of a nested repeater protocol on the event kernel.

    The protocol tree has ``2**len(plan)`` generation leaves; the unit at
    level L combines two copies of the level L-1 output using plan[L-1].
    Nodes carry integer ids; the registry holds, per node, the link it has
    delivered (birth time and Werner parameter) or None, plus an epoch
    counter for lazy cancellation of stale events.
    """

    def __init__(self, params, protocol=None, seed=0, delay=0, trace=False):
        if protocol is None:
            protocol = ChainProtocol.swap_only(params.n)
        if protocol.n_swaps != params.n:
            raise ValueError(
                f"protocol has {protocol.n_swaps} swaps but "
                f"params.n = {params.n}")
        if delay < 0 or delay != int(delay):
            raise ValueError("delay must be a nonnegative integer")
        self.params = params
        self.protocol = protocol
        self.delay = int(delay)
        self.depth = len(protocol.plan)
        self.seed = seed
        self.tree = _tree_structure(self.depth)
        rng = seed if hasattr(seed, "random") else \
            np.random.Generator(np.random.Philox(key=[seed, 0]))
        n_nodes = len(self.tree.parent)
        self.links = [None] * n_nodes
        self.epochs = [0] * n_nodes
        self.state = SimState(rng=rng, handler=self._perform,
                              trace=[] if trace else None)
        self.state.registry = {"links": self.links, "epochs": self.epochs}
        self.decay = params.decay_per_step
        self._log_q = math.log1p(-params.p_g) if params.p_g < 1.0 else 0.0
        self.result = None

    # -- event handling -------------------------------------------------

    def _gen_draw(self):
        """Attempts until the first success; the failing attempts in
        between are aggregated into the waiting time."""
        return _geometric(self.state.rng, self.params.p_g, self._log_q)

    def run(self):
        """Execute until the root delivers; returns a SampleRecord."""
        state = self.state
        for leaf in range(self.tree.n_leaves):
            schedule(state, self._gen_draw(), EventKind.GEN_ATTEMPT,
                     (leaf, 0))
        run_until(state, lambda s: self.result is not None)
        return self.result

    def _rearm(self, rng):
        """Reset clock, queue, and registry for the next batch run."""
        n = len(self.links)
        self.links[:] = [None] * n
        self.epochs[:] = [0] * n
        state = self.state
        state.clock = 0
        state.queue.clear()
        state._seq = 0
        state.rng = rng
        if state.trace is not None:
            state.trace.clear()
        self.result = None

    def _perform(self, state, event):
        kind = event.kind
        if kind is EventKind.GEN_ATTEMPT:
            self._on_gen(event)
        elif kind is EventKind.SWAP_RESOLVE:
            self._on_resolve(event)
        elif kind is EventKind.CUTOFF_EXPIRE:
            self._on_expire(event)
        elif kind is EventKind.END:
            t, w = event.payload
            self.result = SampleRecord(t=t, w=min(w, 1.0))

    def _on_gen(self, event):
        leaf, epoch = event.payload
        if self.epochs[leaf] != epoch or self.links[leaf] is not None:
            return  # stale attempt from a superseded round
        self.links[leaf] = (self.state.clock, self.protocol.w0)
        self._deliver(leaf)

    def _deliver(self, node):
        """A node produced its link; wire it into the parent's combine."""
        tree = self.tree
        parent = tree.parent[node]
        now = self.state.clock
        if parent < 0:
            birth, w = self.links[node]
            schedule(self.state, now, EventKind.END, (now, w))
            return
        sibling = tree.sibling[node]
        if self.links[sibling] is None:
            if self.params.tau is not None:
                # Discard the stored link once its age would exceed tau.
                schedule(self.state, now + self.params.tau + 1,
                         EventKind.CUTOFF_EXPIRE,
                         (parent, self.epochs[parent], node, now))
        else:
            schedule(self.state, now + self.delay,
                     EventKind.SWAP_RESOLVE, (parent, self.epochs[parent]))

    def _reset_subtree(self, node, restart_time):
        """Drop every link below ``node``; generation restarts at
        ``restart_time``, so fresh arrivals land at restart_time + draw."""
        links, epochs = self.links, self.epochs
        for member in self.tree.subtree[node]:
            links[member] = None
            epochs[member] += 1
        for leaf in self.tree.leaves_of[node]:
            schedule(self.state, restart_time + self._gen_draw(),
                     EventKind.GEN_ATTEMPT, (leaf, epochs[leaf]))

    def _on_expire(self, event):
        parent, epoch, child, birth = event.payload
        if self.epochs[parent] != epoch:
            return
        link = self.links[child]
        if link is None or link[0] != birth:
            return  # the stored link was consumed meanwhile
        self.epochs[parent] += 1
        restart = self.state.clock - 1  # the discard happened at age tau
        left, right = self.tree.children[parent]
        self._reset_subtree(left, restart)
        self._reset_subtree(right, restart)

    def _on_resolve(self, event):
        node, epoch = event.payload
        if self.epochs[node] != epoch:
            return
        left, right = self.tree.children[node]
        link_l, link_r = self.links[left], self.links[right]
        if link_l is None or link_r is None:
            return  # a cut-off fired during the resolve delay
        now = self.state.clock
        (b1, w1), (b2, w2) = link_l, link_r
        age_l, age_r = now - b1, now - b2
        if self.params.tau is not None:
            assert max(age_l, age_r) - self.delay <= self.params.tau, \
                "swap consumed a link past its cut-off age"
        w1 = w1 * self.decay ** age_l
        w2 = w2 * self.decay ** age_r
        self.epochs[node] += 1
        self.links[left] = None
        self.links[right] = None
        op = self.protocol.plan[self.tree.level[node] - 1]
        rng = self.state.rng
        if op == "swap":
            p = self.params.p_s
            success = p >= 1.0 or rng.random() < p
            w_out = w1 * w2
        else:
            success = rng.random() < distill_success_prob(w1, w2)
            w_out = distill_output_w(w1, w2)
        if success:
            self.links[node] = (now, w_out)
            self._deliver(node)
        else:
            self._reset_subtree(left, now)
            self._reset_subtree(right, now)

    def trace_hash(self):
        """SHA-256 of the event trace; identical for identical seeds."""
        if self.state.trace is None:
            raise ValueError("run with trace=True to collect a trace")
        blob = "\n".join(self.state.trace).encode()
        return hashlib.sha256(blob).hexdigest()


def simulate_chain(params, protocol=None, seed=0, delay=0):
    """One run of the chain protocol; returns the delivered SampleRecord.

    With zero delay the (time, quality) law coincides with
    :func:`qnd.montecarlo.sample_chain`; a positive integer delay charges
    that many extra steps per swap resolution.
    """
    return ChainSimulation(params, protocol, seed=seed, delay=delay).run()


def simulate_batch(params, protocol=None, n_samples=1000, seed=0, delay=0):
    """Seeded batch of runs, using the same per-sample substream rule as
    the Monte Carlo engine; returns a BatchSummary."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if protocol is None:
        protocol = ChainProtocol.swap_only(params.n)
    times = np.empty(n_samples, dtype=np.int64)
    wvals = np.empty(n_samples, dtype=float)
    sim = ChainSimulation(params, protocol, seed=0, delay=delay)
    for i in range(n_samples):
        sim._rearm(substream(seed, i))
        rec = sim.run()
        times[i] = rec.t
        wvals[i] = rec.w
    return _summarize(times, wvals, seed if isinstance(seed, int) else -1)
