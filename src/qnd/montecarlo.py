"""Monte Carlo sampling of repeater-chain waiting times and state quality.

Each sample replays one exact trajectory of the nested protocol by recursing
over its structure: geometric draws for elementary generation, the
max/restart logic for waiting on two copies under an optional cut-off, a
geometric number of swap rounds, and state-dependent Bernoulli draws for
distillation.  The Werner-parameter updates are the same algebra the exact
engine uses, so sample statistics converge to the tracked distribution.

Reproducibility: sample ``i`` of a batch draws from a Philox stream keyed by
``(master_seed, i)``.  Distinct keys give statistically independent streams,
and results depend only on (parameters, protocol, sample count, seed), never
on execution order, so batches may be partitioned across workers freely.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chainformulas import ChainParams
from .disttrack import ChainProtocol, distill_output_w, distill_success_prob

__all__ = [
    "SampleRecord",
    "BatchSummary",
    "sample_chain",
    "run_batch",
    "substream",
    "batch_csv",
    "batch_summary_dict",
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
    w_by_t: tuple = ()

    def histogram_dict(self):
        return dict(self.histogram)


def substream(seed, index):
    """The RNG of sample ``index`` in a batch with master seed ``seed``."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _geometric(rng, p, log_q):
    """Geometric draw on {1, 2, ...} by inverse CDF; one uniform per draw."""
    if p >= 1.0:
        return 1
    u = rng.random()
    return int(math.log1p(-u) / log_q) + 1


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
            assert tau is None or gap <= tau
            elapsed += max(t1, t2)
            if t1 <= t2:
                w1 *= x ** gap
            else:
                w2 *= x ** gap
            break
        if op == "swap":
            if p_s >= 1.0 or rng.random() < p_s:
                return elapsed, w1 * w2
        else:
            if rng.random() < distill_success_prob(w1, w2):
                return elapsed, distill_output_w(w1, w2)
        # failure: both sides regenerate from scratch


def sample_chain(params, protocol=None, rng_state=None):
    """Draw one exact end-to-end trajectory.

    Parameters
    ----------
    params : ChainParams
    protocol : ChainProtocol, optional
        Defaults to the plain doubling protocol with ``params.n`` swaps.
    rng_state : numpy.random.Generator
        The stream to consume; see :func:`substream` for batch seeding.
    """
    if protocol is None:
        protocol = ChainProtocol.swap_only(params.n)
    if protocol.n_swaps != params.n:
        raise ValueError(
            f"protocol has {protocol.n_swaps} swaps but params.n = {params.n}")
    rng = rng_state if rng_state is not None else np.random.default_rng()
    x = params.decay_per_step
    log_q = math.log1p(-params.p_g) if params.p_g < 1.0 else 0.0
    t, w = _sample_unit(len(protocol.plan), params, protocol, rng, x, log_q)
    return SampleRecord(t=t, w=min(w, 1.0))


def run_batch(params, protocol=None, n_samples=1000, seed=0):
    """Seeded batch of samples with summary statistics.

    Deterministic given (params, protocol, n_samples, seed): sample i uses
    its own Philox substream keyed by (seed, i), so the batch result does
    not depend on the order in which the samples are produced.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if protocol is None:
        protocol = ChainProtocol.swap_only(params.n)
    times = np.empty(n_samples, dtype=np.int64)
    wvals = np.empty(n_samples, dtype=float)
    for i in range(n_samples):
        record = sample_chain(params, protocol, substream(seed, i))
        times[i] = record.t
        wvals[i] = record.w
    return _summarize(times, wvals, seed)


def _summarize(times, wvals, seed):
    """BatchSummary of per-sample delivery times and Werner parameters;
    shared by the Monte Carlo and discrete-event batches."""
    n_samples = len(times)
    hist = {}
    w_sum = {}
    for t, w in zip(times, wvals):
        t = int(t)
        hist[t] = hist.get(t, 0) + 1
        w_sum[t] = w_sum.get(t, 0.0) + float(w)
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
        w_by_t=tuple((t, w_sum[t] / c) for t, c in sorted(hist.items())),
    )


def batch_csv(summary):
    """CSV rendering of the empirical distribution, with the same columns
    as the exact engine's export."""
    lines = ["t,pmf,cdf,mean_w,mean_F"]
    n = summary.n_samples
    w_at = dict(summary.w_by_t)
    cum = 0
    for t, count in summary.histogram:
        cum += count
        w = w_at[t]
        lines.append(f"{t},{count / n!r},{cum / n!r},{w!r},"
                     f"{(1.0 + 3.0 * w) / 4.0!r}")
    return "\n".join(lines) + "\n"


def batch_summary_dict(summary):
    """Summary dict mirroring the exact-engine export, plus seeding info."""
    return {
        "mean": summary.mean_t,
        "stddev": (None if summary.stderr_t is None
                   else summary.stderr_t * math.sqrt(summary.n_samples)),
        "captured_mass": 1.0,
        "mean_w": summary.mean_w,
        "stderr_t": summary.stderr_t,
        "stderr_w": summary.stderr_w,
        "n_samples": summary.n_samples,
        "seed": summary.seed,
    }
