"""Minimal discrete-event simulation kernel and a repeater-chain protocol
model running on it.

The kernel is the classic sequential loop over a clock and one event
queue: repeatedly pop the next event, advance the clock, perform the event,
and check the termination condition.  Events are totally ordered by (time,
scheduling sequence), so a fixed seed replays an identical event trace;
that repeatability is the point of the single-queue design, and the
optional event-trace log hashes to a seed-stable fingerprint.

The chain model executes the same protocol language as the analytical
engines: a complete binary tree of combine units over L = 2**depth
generation leaves.  Node ids run level by level, left to right (leaves
0..L-1, root 2L-2), so the tree is index arithmetic: parent L + i // 2,
sibling i ^ 1, children 2(p-L) and 2(p-L)+1.  Each unit stores the
earlier of its two input links until the later arrives; with a cut-off
the stored link expires once its age would exceed ``tau``, resetting the
whole subtree (the identical restart the exact and sampling engines use).
Expiry events are scheduled when a link is stored, hence always precede
resolve events carrying the same timestamp.  An optional integer
classical-communication delay per swap shifts resolve events; with zero
delay the delivered (time, quality) statistics coincide with direct
Monte Carlo sampling of the protocol.  A delay may not exceed the
cut-off: the stored link would always expire before its swap resolves.
A run ends when the root delivers; the trace then closes with an ``end``
record carrying the delivery time and the root's Werner parameter.

The model shares its sampling core with :mod:`qnd.montecarlo`: a resolve
event draws its swap or distillation outcome with the same unit-outcome
function.  A run takes its random stream when it starts, not when the
simulation is built: :meth:`ChainSimulation.run` arms the Philox stream
``substream(seed, 0)`` of its int seed, and :func:`simulate_batch` runs
the Monte Carlo batch loop, handing one simulation the stream of each
sample in turn.  Either way the state is reset first, so a trajectory is
fixed by the stream it is given.
"""

import enum
import hashlib
import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .disttrack import ChainProtocol
from .montecarlo import (SampleRecord, _batch, _geometric, _unit_outcome,
                         substream)

__all__ = [
    "EventKind",
    "Event",
    "SimState",
    "EmptyQueueError",
    "schedule",
    "pop_next",
    "run_until",
    "ChainSimulation",
    "simulate_batch",
]


class EmptyQueueError(RuntimeError):
    """The event queue drained before the termination condition held."""


class EventKind(str, enum.Enum):
    GEN_ATTEMPT = "gen-attempt"
    SWAP_RESOLVE = "swap-resolve"
    CUTOFF_EXPIRE = "cutoff-expire"
    END = "end"  # names the closing trace record; never queued


class Event(NamedTuple):
    """One scheduled action: strict (time, sequence) order, sequence
    assigned at scheduling time.  The (time, sequence) prefix is unique, so
    events go onto the heap as they are."""

    time: int
    sequence: int
    kind: EventKind
    payload: tuple = ()


@dataclass
class SimState:
    """Clock, event queue, optional trace lines, and sequence counter of
    one run."""

    clock: int = 0
    queue: list = field(default_factory=list)
    trace: list | None = None
    _seq: int = 0


def schedule(state, time, kind, payload=()):
    """Append an event; never earlier than the current clock."""
    if time < state.clock:
        raise ValueError(f"cannot schedule at {time} before clock "
                         f"{state.clock}")
    event = Event(time, state._seq, kind, payload)
    state._seq += 1
    heapq.heappush(state.queue, event)
    return event


def pop_next(state):
    """Next event in (time, sequence) order; advances the clock."""
    if not state.queue:
        raise EmptyQueueError("event queue is empty")
    event = heapq.heappop(state.queue)
    state.clock = event.time
    return event


def _record(state, event):
    """Append the trace line of ``event``: time, sequence, kind, payload."""
    state.trace.append(f"{event.time}\t{event.sequence}\t"
                       f"{event.kind.value}\t{event.payload}")


def run_until(state, condition, perform):
    """Drive the main loop until ``condition(state)`` holds.

    Pops, advances the clock, records the event if tracing, calls
    ``perform(event)``, and re-checks the condition; raises EmptyQueueError
    if the queue drains first.
    """
    while not condition(state):
        event = pop_next(state)
        if state.trace is not None:
            _record(state, event)
        perform(event)
    return state


class ChainSimulation:
    """One seeded run of a nested repeater protocol on the event kernel.

    The protocol tree has L = ``2**len(plan)`` generation leaves; the unit
    at level l combines two copies of the level l-1 output using
    plan[l-1].  Node ids: leaves 0..L-1, then each level left to right,
    root 2L-2.  Node i has parent L + i // 2 (2L-1 marks the root),
    sibling i ^ 1, children 2(i-L) and 2(i-L)+1, and unit
    ``plan[depth - (2L-1-i).bit_length()]``.  ``links`` holds, per node,
    the link it has delivered (birth time and Werner parameter) or None,
    and ``epochs`` a counter for lazy cancellation of stale events.  A run
    ends as soon as the root delivers; with ``trace=True`` the trace then
    closes with an ``end`` record.  ``seed`` is an int: :meth:`run` draws
    from ``substream(seed, 0)``, armed afresh on every call, so a second
    run replays the same trace.  With a cut-off, a delay above ``tau``
    raises ValueError: no swap could resolve before its stored link expires.
    """

    def __init__(self, params, protocol=None, seed=0, delay=0, trace=False):
        protocol = ChainProtocol.for_chain(params, protocol)
        if delay < 0 or delay != int(delay):
            raise ValueError("delay must be a nonnegative integer")
        if protocol.plan and params.tau is not None and delay > params.tau:
            raise ValueError(
                f"delay {delay:g} exceeds the cut-off tau={params.tau}: "
                f"every stored link would expire before its swap resolves")
        self.params = params
        self.protocol = protocol
        self.delay = int(delay)
        self.depth = len(protocol.plan)
        self.n_leaves = 2 ** self.depth
        self.seed = seed
        self.rng = None
        n_nodes = 2 * self.n_leaves - 1
        self.links = [None] * n_nodes
        self.epochs = [0] * n_nodes
        self.state = SimState(trace=[] if trace else None)
        self.decay = params.decay_per_step
        self._log_q = math.log1p(-params.p_g) if params.p_g < 1.0 else 0.0
        self.result = None

    # -- event handling -------------------------------------------------

    def _gen_draw(self):
        """Attempts until the first success; the failing attempts in
        between are aggregated into the waiting time."""
        return _geometric(self.rng, self.params.p_g, self._log_q)

    def run(self):
        """Execute until the root delivers; returns a SampleRecord."""
        return self._run(substream(self.seed, 0))

    def _run(self, rng):
        """Reset clock, queue and links, then run on ``rng``."""
        n = len(self.links)
        self.links[:] = [None] * n
        self.epochs[:] = [0] * n
        state = self.state
        state.clock = 0
        state.queue.clear()
        state._seq = 0
        self.rng = rng
        if state.trace is not None:
            state.trace.clear()
        self.result = None
        for leaf in range(self.n_leaves):
            schedule(state, self._gen_draw(), EventKind.GEN_ATTEMPT,
                     (leaf, 0))
        run_until(state, lambda s: self.result is not None, self._perform)
        return self.result

    def _perform(self, event):
        kind = event.kind
        if kind is EventKind.GEN_ATTEMPT:
            self._on_gen(event)
        elif kind is EventKind.SWAP_RESOLVE:
            self._on_resolve(event)
        elif kind is EventKind.CUTOFF_EXPIRE:
            self._on_expire(event)

    def _on_gen(self, event):
        leaf, epoch = event.payload
        if self.epochs[leaf] != epoch or self.links[leaf] is not None:
            return  # stale attempt from a superseded round
        self.links[leaf] = (self.state.clock, self.protocol.w0)
        self._deliver(leaf)

    def _deliver(self, node):
        """A node produced its link; wire it into the parent's combine."""
        parent = self.n_leaves + node // 2
        now = self.state.clock
        if parent == 2 * self.n_leaves - 1:  # the root delivered
            w = self.links[node][1]
            self.result = SampleRecord(t=now, w=min(w, 1.0))
            state = self.state
            if state.trace is not None:
                _record(state, Event(now, state._seq, EventKind.END,
                                     (now, w)))
            return
        if self.links[node ^ 1] is None:
            if self.params.tau is not None:
                # Discard the stored link once its age would exceed tau.
                schedule(self.state, now + self.params.tau + 1,
                         EventKind.CUTOFF_EXPIRE,
                         (parent, self.epochs[parent], node, now))
        else:
            schedule(self.state, now + self.delay,
                     EventKind.SWAP_RESOLVE, (parent, self.epochs[parent]))

    def _reset_subtree(self, node, restart_time):
        """Drop every link at and below ``node``; generation restarts at
        ``restart_time``, so fresh arrivals land at restart_time + draw.
        Leaves are reached left to right, each drawing in turn."""
        self.links[node] = None
        self.epochs[node] += 1
        if node < self.n_leaves:
            schedule(self.state, restart_time + self._gen_draw(),
                     EventKind.GEN_ATTEMPT, (node, self.epochs[node]))
        else:
            self._reset_children(node, restart_time)

    def _reset_children(self, node, restart_time):
        """Reset the two subtrees below ``node``, the left one first."""
        left = 2 * (node - self.n_leaves)
        self._reset_subtree(left, restart_time)
        self._reset_subtree(left + 1, restart_time)

    def _on_expire(self, event):
        parent, epoch, child, birth = event.payload
        if self.epochs[parent] != epoch:
            return
        link = self.links[child]
        if link is None or link[0] != birth:
            return  # the stored link was consumed meanwhile
        self.epochs[parent] += 1
        # The discard happened at age tau, one step before the event.
        self._reset_children(parent, self.state.clock - 1)

    def _on_resolve(self, event):
        node, epoch = event.payload
        if self.epochs[node] != epoch:
            return
        left = 2 * (node - self.n_leaves)
        link_l, link_r = self.links[left], self.links[left + 1]
        if link_l is None or link_r is None:
            return  # a cut-off fired during the resolve delay
        now = self.state.clock
        (b1, w1), (b2, w2) = link_l, link_r
        age_l, age_r = now - b1, now - b2
        if (self.params.tau is not None
                and max(age_l, age_r) - self.delay > self.params.tau):
            raise AssertionError("swap consumed a link past its cut-off age")
        w1 = w1 * self.decay ** age_l
        w2 = w2 * self.decay ** age_r
        self.epochs[node] += 1
        self.links[left] = self.links[left + 1] = None
        levels_up = (2 * self.n_leaves - 1 - node).bit_length()
        op = self.protocol.plan[self.depth - levels_up]
        w_out = _unit_outcome(op, w1, w2, self.params.p_s, self.rng)
        if w_out is not None:
            self.links[node] = (now, w_out)
            self._deliver(node)
        else:
            self._reset_children(node, now)

    def trace_hash(self):
        """SHA-256 of the event trace; identical for identical seeds."""
        if self.state.trace is None:
            raise ValueError("run with trace=True to collect a trace")
        blob = "\n".join(self.state.trace).encode()
        return hashlib.sha256(blob).hexdigest()


def simulate_batch(params, protocol=None, n_samples=1000, seed=0, delay=0):
    """Seeded batch of runs, using the same per-sample substream rule as
    the Monte Carlo engine; returns a BatchSummary.  One simulation runs
    every sample, each on its own batch stream."""
    sim = ChainSimulation(params, protocol, delay=delay)
    return _batch(sim._run, n_samples, seed)
