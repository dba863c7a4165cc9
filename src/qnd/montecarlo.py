"""Monte Carlo sampling of repeater-chain waiting times and state quality.

Each sample replays one exact trajectory of the nested protocol: geometric
draws for elementary generation, the max/restart logic for waiting on two
copies under an optional cut-off, a geometric number of swap rounds, and
state-dependent Bernoulli draws for distillation.  The Werner-parameter
updates are the same algebra the exact engine uses, so sample statistics
converge to the tracked distribution.  The sampler is built once per batch:
one closure per protocol unit, stacked bottom-up, each with its unit's
outcome, the cut-off, the decay and the closure below bound in, so a sample
is a call of the top closure on the stream's ``random``.

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
loop and its two draws, built by the factories ``_generation(p_g)`` (the
geometric generation time) and ``_outcome(op, p_s)`` (the swap or
distillation outcome), so both samplers consume the same uniforms for the
same protocol events.
"""

import itertools
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
    doubles as k calls to ``random()``.  ``random`` is rebound on each
    restart to the ``__next__`` of an iterator over the sample's blocks of
    ``_BLOCK`` uniforms, so a draw makes no Python-level call.
    """

    def __init__(self, seed):
        self._gen = substream(seed, 0)
        # The state of a fresh key (seed, 0): counter 0, empty buffers.
        self._fresh = self._gen.bit_generator.state
        self._key = self._fresh["state"]["key"]
        # Each block is drawn only when a sample reads past the last one.
        self._blocks = map(np.ndarray.tolist,
                           map(self._gen.random, itertools.repeat(_BLOCK)))
        self.restart(0)

    def restart(self, index):
        """Start the stream of sample ``index``; the unread rest of the
        previous sample's block is dropped."""
        self._key[1] = index
        self._gen.bit_generator.state = self._fresh
        self.random = itertools.chain.from_iterable(self._blocks).__next__


def _generation(p_g):
    """``gen(random)``: an elementary generation time, geometric on
    {1, 2, ...} with success probability ``p_g``, by inverse CDF from one
    uniform ``random()``.  With ``p_g >= 1`` it draws nothing and is 1."""
    if p_g >= 1.0:
        return lambda random: 1
    log1p = math.log1p
    log_q = log1p(-p_g)

    def gen(random):
        return int(log1p(-random()) / log_q) + 1
    return gen


def _outcome(op, p_s):
    """``outcome(w1, w2, random)``: the Werner parameter one ``op``
    attempt (swap or distillation) delivers on inputs ``w1``, ``w2``, or
    None when it fails.  A swap with ``p_s >= 1`` draws nothing;
    otherwise one uniform ``random()`` decides."""
    if op == "distill":
        def outcome(w1, w2, random):
            if random() < distill_success_prob(w1, w2):
                return distill_output_w(w1, w2)
            return None
    elif p_s >= 1.0:
        def outcome(w1, w2, random):
            return w1 * w2
    else:
        def outcome(w1, w2, random):
            if random() < p_s:
                return w1 * w2
            return None
    return outcome


def _sampler(params, protocol):
    """``draw(random)``: the SampleRecord of one trajectory of
    ``protocol``, every uniform taken from ``random()``.

    The trajectory is compiled once: one closure per protocol unit,
    stacked bottom-up, each with its unit's outcome, the cut-off, the
    decay per step and the closure below bound in.  A unit draws both
    input links (the left one first), then its outcome; when the stored
    link would outlive the cut-off (it is discarded at age tau) or the
    attempt fails, both sides start over.  The lowest unit draws its two
    elementary times itself.
    """
    gen = _generation(params.p_g)
    w0 = protocol.w0
    tau = math.inf if params.tau is None else params.tau
    x = params.decay_per_step

    def lowest(outcome):
        def unit(random):
            elapsed = 0
            while True:
                t1 = gen(random)
                t2 = gen(random)
                if t1 <= t2:
                    if t2 - t1 > tau:
                        elapsed += t1 + tau
                        continue
                    elapsed += t2
                    w1, w2 = w0 * x ** (t2 - t1), w0
                else:
                    if t1 - t2 > tau:
                        elapsed += t2 + tau
                        continue
                    elapsed += t1
                    w1, w2 = w0, w0 * x ** (t1 - t2)
                w = outcome(w1, w2, random)
                if w is not None:
                    return elapsed, w
        return unit

    def upper(below, outcome):
        def unit(random):
            elapsed = 0
            while True:
                t1, w1 = below(random)
                t2, w2 = below(random)
                if t1 <= t2:
                    if t2 - t1 > tau:
                        elapsed += t1 + tau
                        continue
                    elapsed += t2
                    w1 *= x ** (t2 - t1)
                else:
                    if t1 - t2 > tau:
                        elapsed += t2 + tau
                        continue
                    elapsed += t1
                    w2 *= x ** (t1 - t2)
                w = outcome(w1, w2, random)
                if w is not None:
                    return elapsed, w
        return unit

    outcomes = [_outcome(op, params.p_s) for op in protocol.plan]
    if outcomes:
        top = lowest(outcomes[0])
        for outcome in outcomes[1:]:
            top = upper(top, outcome)
    else:
        def top(random):
            return gen(random), w0

    def draw(random):
        t, w = top(random)
        return SampleRecord(t=t, w=min(w, 1.0))
    return draw


def sample_chain(params, protocol, rng):
    """Draw one exact end-to-end trajectory: build the sampler of
    ``protocol`` and draw once.

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
    return _sampler(params, protocol)(rng.random)


def run_batch(params, protocol=None, n_samples=1000, seed=0):
    """Seeded batch of samples with summary statistics.

    Deterministic given (params, protocol, n_samples, seed): sample i uses
    its own Philox substream keyed by (seed, i), so the batch result does
    not depend on the order in which the samples are produced.  ``seed``
    must lie in [0, 2**64).  The sampler is compiled once per batch.
    """
    protocol = ChainProtocol.for_chain(params, protocol)
    return _batch(_sampler(params, protocol), n_samples, seed)


def _batch(draw, n_samples, seed):
    """BatchSummary of ``draw(random)`` on the Philox substream of each
    sample i < n_samples; the batch loop of the Monte Carlo and
    discrete-event engines.  ``random`` is the ``random`` of the batch
    stream, read after each restart; ``draw`` returns a SampleRecord."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    stream = _BatchStream(seed)
    times = np.empty(n_samples, dtype=np.int64)
    wvals = np.empty(n_samples, dtype=float)
    for i in range(n_samples):
        stream.restart(i)
        record = draw(stream.random)
        times[i] = record.t
        wvals[i] = record.w
    values, counts = np.unique(times, return_counts=True)
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
        histogram=tuple(zip(values.tolist(), counts.tolist())),
        seed=seed,
    )

