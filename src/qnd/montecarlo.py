"""Monte Carlo sampling of repeater-chain waiting times and state quality.

Each sample replays one exact trajectory of the nested protocol by recursing
over its structure: geometric draws for elementary generation, the
max/restart logic for waiting on two copies under an optional cut-off, a
geometric number of swap rounds, and state-dependent Bernoulli draws for
distillation.  The Werner-parameter updates are the same algebra the exact
engine uses, so sample statistics converge to the tracked distribution.

Reproducibility: sample ``i`` of a batch draws from a Philox stream keyed by
``(master_seed, i)``, with ``master_seed`` in [0, 2**64).  Distinct keys give
statistically independent streams, and results depend only on (parameters,
protocol, sample count, seed), never on execution order, so batches may be
partitioned across workers freely.  Philox is counter-based (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so a batch re-keys
one generator per sample instead of building a new one, and gets the same
``(seed, i)`` streams.  It draws uniforms in blocks; drawing ahead stays
inside each sample's own stream, and the unread rest of a block is dropped
when the next sample starts.

The discrete-event engine (:mod:`qnd.deskernel`) reuses this module's batch
loop, its geometric draw and its swap/distillation unit outcome, so both
samplers consume the same uniforms for the same protocol events.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .disttrack import ChainProtocol, distill_output_w, distill_success_prob

__all__ = [
    "SampleRecord",
    "BatchSummary",
    "sample_chain",
    "run_batch",
    "substream",
]


@dataclass(frozen=True)
class SampleRecord:
    """One delivered end-to-end link: time (attempt units) and quality."""

    t: int
    w: float

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("delivery times start at 1")
        if not (0.0 <= self.w <= 1.0):
            raise ValueError(f"Werner parameter out of [0, 1]: {self.w!r}")


@dataclass(frozen=True)
class BatchSummary:
    """Aggregates of a seeded batch.

    ``histogram`` maps delivery time to sample count and carries the full
    batch (its counts sum to ``n_samples``).  Standard errors are sample
    standard deviations over sqrt(n); with a single sample they are None.
    """

    n_samples: int
    mean_t: float
    stderr_t: float | None
    mean_w: float
    stderr_w: float | None
    histogram: tuple
    seed: int


_BLOCK = 16  # uniforms per refill of a batch stream


def substream(seed, index):
    """The RNG of sample ``index`` in a batch with master seed ``seed``.

    ``seed`` is a Philox key word: an integer in [0, 2**64).  numpy would
    truncate a float and cast any other value to an undefined key, or wrap
    it silently, so a non-integer raises TypeError and an integer out of
    range ValueError.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64): {seed!r}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _BatchStream:
    """The substreams of one batch on a single re-keyed Philox generator.

    After ``restart(i)``, ``random()`` returns the draws of
    ``substream(seed, i).random()``: the generator is set to the fresh
    state of key ``(seed, i)``, and for Philox ``random(k)`` gives the same
    doubles as k calls to ``random()``.
    """

    def __init__(self, seed):
        self._gen = substream(seed, 0)
        # The state of a fresh key (seed, 0): counter 0, empty buffers.
        self._fresh = self._gen.bit_generator.state
        self._key = self._fresh["state"]["key"]
        self._block = []

    def restart(self, index):
        """Start the stream of sample ``index``; the unread rest of the
        previous sample's block is dropped."""
        self._key[1] = index
        self._gen.bit_generator.state = self._fresh
        self._block = []

    def random(self):
        block = self._block
        if not block:
            block = self._block = self._gen.random(_BLOCK).tolist()
            block.reverse()
        return block.pop()


def _geometric(rng, p, log_q):
    """Geometric draw on {1, 2, ...} by inverse CDF; one uniform per draw."""
    if p >= 1.0:
        return 1
    u = rng.random()
    return int(math.log1p(-u) / log_q) + 1


def _unit_outcome(op, w1, w2, p_s, rng):
    """Werner parameter delivered by one swap or distillation attempt on
    inputs ``w1``, ``w2``, or None when the attempt fails.  A swap with
    ``p_s >= 1`` draws nothing; otherwise one uniform decides."""
    if op == "swap":
        if p_s >= 1.0 or rng.random() < p_s:
            return w1 * w2
    elif rng.random() < distill_success_prob(w1, w2):
        return distill_output_w(w1, w2)
    return None


def _sample_unit(level, params, protocol, rng, x, log_q):
    """Delivery (time, w) of the link produced by plan[:level]."""
    if level == 0:
        return _geometric(rng, params.p_g, log_q), protocol.w0
    op = protocol.plan[level - 1]
    p_s = params.p_s
    tau = params.tau
    elapsed = 0
    while True:  # unit rounds (swap or distillation attempts)
        while True:  # combine rounds (cut-off restarts)
            t1, w1 = _sample_unit(level - 1, params, protocol, rng, x, log_q)
            t2, w2 = _sample_unit(level - 1, params, protocol, rng, x, log_q)
            gap = abs(t1 - t2)
            if tau is not None and gap > tau:
                # The stored link would outlive the cut-off: it is
                # discarded at age tau and both sides start over.
                elapsed += min(t1, t2) + tau
                continue
            elapsed += max(t1, t2)
            if t1 <= t2:
                w1 *= x ** gap
            else:
                w2 *= x ** gap
            break
        w = _unit_outcome(op, w1, w2, p_s, rng)
        if w is not None:
            return elapsed, w
        # failure: both sides regenerate from scratch


def sample_chain(params, protocol, rng):
    """Draw one exact end-to-end trajectory.

    Parameters
    ----------
    params : ChainParams
    protocol : ChainProtocol or None
        None selects the plain doubling protocol with ``params.n`` swaps.
    rng : numpy.random.Generator
        The stream to consume, required: the trajectory is fixed by it.
        :func:`substream` gives sample ``i`` of a seeded batch.
    """
    protocol = ChainProtocol.for_chain(params, protocol)
    x = params.decay_per_step
    log_q = math.log1p(-params.p_g) if params.p_g < 1.0 else 0.0
    t, w = _sample_unit(len(protocol.plan), params, protocol, rng, x, log_q)
    return SampleRecord(t=t, w=min(w, 1.0))


def run_batch(params, protocol=None, n_samples=1000, seed=0):
    """Seeded batch of samples with summary statistics.

    Deterministic given (params, protocol, n_samples, seed): sample i uses
    its own Philox substream keyed by (seed, i), so the batch result does
    not depend on the order in which the samples are produced.  ``seed``
    must lie in [0, 2**64).
    """
    protocol = ChainProtocol.for_chain(params, protocol)
    return _batch(lambda rng: sample_chain(params, protocol, rng),
                  n_samples, seed)


def _batch(draw, n_samples, seed):
    """BatchSummary of ``draw(rng)`` on the Philox substream of each
    sample i < n_samples; the batch loop of the Monte Carlo and
    discrete-event engines.  ``draw`` returns a SampleRecord."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    stream = _BatchStream(seed)
    times = np.empty(n_samples, dtype=np.int64)
    wvals = np.empty(n_samples, dtype=float)
    hist = {}
    for i in range(n_samples):
        stream.restart(i)
        record = draw(stream)
        t, w = int(record.t), float(record.w)
        times[i] = t
        wvals[i] = w
        hist[t] = hist.get(t, 0) + 1
    if n_samples > 1:
        stderr_t = float(times.std(ddof=1) / math.sqrt(n_samples))
        stderr_w = float(wvals.std(ddof=1) / math.sqrt(n_samples))
    else:
        stderr_t = stderr_w = None
    return BatchSummary(
        n_samples=n_samples,
        mean_t=float(times.mean()),
        stderr_t=stderr_t,
        mean_w=float(wvals.mean()),
        stderr_w=stderr_w,
        histogram=tuple(sorted(hist.items())),
        seed=seed,
    )

