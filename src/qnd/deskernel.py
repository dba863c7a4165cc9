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

Each run of the chain model drives the kernel with one handler: the run
binds its tree, links and parameters to locals and hands
:func:`run_until` a single ``perform(event)`` that branches on the event
kind (generation, resolve, expiry).  Every event still enters the queue
through :func:`schedule` and leaves it through :func:`pop_next`, so the
kernel is the model's only path and its calls count the events.

The model shares its sampling core with :mod:`qnd.montecarlo`: a
simulation builds its generation draw with ``_generation(p_g)`` and one
swap or distillation outcome per protocol unit with ``_outcome(op, p_s)``,
once, when it is built; generation events and resolve events draw with
them.  A run takes its random stream when it starts, not when the
simulation is built: :meth:`ChainSimulation.run` arms the Philox stream
``substream(seed, 0)`` of its int seed, and :func:`simulate_batch` runs
the Monte Carlo batch loop, handing one simulation the stream of each
sample in turn.  Either way the state is reset first, so a trajectory is
fixed by the stream it is given.
"""

import enum
import hashlib
import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

from .disttrack import ChainProtocol
from .montecarlo import (SampleRecord, _batch, _generation, _outcome,
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
    # tuple.__new__ skips the NamedTuple's Python-level __new__.
    event = tuple.__new__(Event, (time, state._seq, kind, payload))
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
    closes with an ``end`` record.  Each run builds one ``perform(event)``
    over its locals and drives it with :func:`run_until`; events go
    through :func:`schedule` and :func:`pop_next`.  ``seed`` is an int:
    :meth:`run` draws from ``substream(seed, 0)``, armed afresh on every
    call, so a second run replays the same trace.  With a cut-off, a delay
    above ``tau`` raises ValueError: no swap could resolve before its
    stored link expires.
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
        n_nodes = 2 * self.n_leaves - 1
        self.links = [None] * n_nodes
        self.epochs = [0] * n_nodes
        self.state = SimState(trace=[] if trace else None)
        self.decay = params.decay_per_step
        # The sampling core, shared with the Monte Carlo engine.
        self._gen = _generation(params.p_g)
        self._outcomes = [_outcome(op, params.p_s) for op in protocol.plan]
        self.result = None

    def run(self):
        """Execute until the root delivers; returns a SampleRecord."""
        return self._run(substream(self.seed, 0).random)

    def _run(self, random):
        """Reset clock, queue and links, then run on the uniforms of
        ``random()``.

        Everything one sample reads is bound to locals here, and
        :func:`run_until` gets a single ``perform(event)`` that branches on
        the event kind; every event still enters through :func:`schedule`
        and leaves through :func:`pop_next`.
        """
        links, epochs = self.links, self.epochs
        links[:] = [None] * len(links)
        epochs[:] = [0] * len(epochs)
        state = self.state
        state.clock = 0
        state.queue.clear()
        state._seq = 0
        trace = state.trace
        if trace is not None:
            trace.clear()
        self.result = None
        tau, gen, outcomes = self.params.tau, self._gen, self._outcomes
        decay, delay = self.decay, self.delay
        w0, depth = self.protocol.w0, self.depth
        n_leaves = self.n_leaves
        root_parent = 2 * n_leaves - 1
        generate, resolve, expire = (EventKind.GEN_ATTEMPT,
                                     EventKind.SWAP_RESOLVE,
                                     EventKind.CUTOFF_EXPIRE)

        def reset(node, restart_time):
            """Drop every link below ``node``, the left subtree first;
            generation restarts at ``restart_time``, so each leaf, reached
            left to right, draws its fresh arrival in turn."""
            left = 2 * (node - n_leaves)
            for child in (left, left + 1):
                links[child] = None
                epochs[child] += 1
                if child < n_leaves:
                    schedule(state, restart_time + gen(random), generate,
                             (child, epochs[child]))
                else:
                    reset(child, restart_time)

        def perform(event):
            kind = event.kind
            if kind is generate:
                node, epoch = event.payload
                if epochs[node] != epoch or links[node] is not None:
                    return  # stale attempt from a superseded round
                now = state.clock
                w = w0
            elif kind is resolve:
                node, epoch = event.payload
                if epochs[node] != epoch:
                    return
                left = 2 * (node - n_leaves)
                link_l, link_r = links[left], links[left + 1]
                if link_l is None or link_r is None:
                    return  # a cut-off fired during the resolve delay
                now = state.clock
                (b1, w1), (b2, w2) = link_l, link_r
                age_l, age_r = now - b1, now - b2
                if tau is not None and max(age_l, age_r) - delay > tau:
                    raise AssertionError(
                        "swap consumed a link past its cut-off age")
                epochs[node] += 1
                links[left] = links[left + 1] = None
                outcome = outcomes[depth - (root_parent - node).bit_length()]
                w = outcome(w1 * decay ** age_l, w2 * decay ** age_r, random)
                if w is None:
                    reset(node, now)
                    return
            else:  # expire: the model queues no other kind
                parent, epoch, child, birth = event.payload
                if epochs[parent] != epoch:
                    return
                link = links[child]
                if link is None or link[0] != birth:
                    return  # the stored link was consumed meanwhile
                epochs[parent] += 1
                # The discard happened at age tau, one step before the event.
                reset(parent, state.clock - 1)
                return
            # ``node`` produced a link; wire it into the parent's combine.
            links[node] = (now, w)
            parent = n_leaves + node // 2
            if parent == root_parent:  # the root delivered
                self.result = SampleRecord(t=now, w=min(w, 1.0))
                if trace is not None:
                    _record(state, Event(now, state._seq, EventKind.END,
                                         (now, w)))
            elif links[node ^ 1] is None:
                if tau is not None:
                    # Discard the stored link once its age would exceed tau.
                    schedule(state, now + tau + 1, expire,
                             (parent, epochs[parent], node, now))
            else:
                schedule(state, now + delay, resolve,
                         (parent, epochs[parent]))

        for leaf in range(n_leaves):
            schedule(state, gen(random), generate, (leaf, 0))
        run_until(state, lambda s: self.result is not None, perform)
        return self.result

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
