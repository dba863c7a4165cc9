import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qnd import montecarlo
from qnd.chainformulas import ChainParams
from qnd.deskernel import simulate_batch
from qnd.disttrack import (ChainProtocol, chain_distribution,
                           distill_output_w, distill_success_prob)
from qnd.montecarlo import SampleRecord, run_batch, sample_chain, substream

HALF_LOG2 = 1.0 / math.log(2.0)


class TestSampleChain:
    def test_deterministic_protocol(self):
        params = ChainParams(n=1, p_g=1.0, p_s=1.0)
        protocol = ChainProtocol.swap_only(1, w0=0.9)
        for i in range(5):
            rec = sample_chain(params, protocol, substream(0, i))
            assert rec.t == 1
            assert rec.w == pytest.approx(0.81)

    def test_records_validate(self):
        with pytest.raises(ValueError):
            SampleRecord(t=0, w=0.5)
        with pytest.raises(ValueError):
            SampleRecord(t=1, w=1.5)

    def test_quality_never_increases_along_trajectories(self):
        params = ChainParams(n=2, p_g=0.4, p_s=0.5, t_coh=8.0)
        protocol = ChainProtocol.swap_only(2, w0=0.95)
        for i in range(300):
            rec = sample_chain(params, protocol, substream(3, i))
            assert rec.w <= 0.95 + 1e-12

    def test_protocol_mismatch_rejected(self):
        with pytest.raises(ValueError, match="swaps"):
            sample_chain(ChainParams(n=2, p_g=0.5),
                         ChainProtocol.swap_only(1), substream(0, 0))


class TestRunBatch:
    def test_same_seed_bit_identical(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        b1 = run_batch(params, n_samples=2000, seed=7)
        b2 = run_batch(params, n_samples=2000, seed=7)
        assert b1 == b2

    def test_different_seeds_differ(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        assert run_batch(params, n_samples=500, seed=1) != \
            run_batch(params, n_samples=500, seed=2)

    def test_prefix_stability(self):
        # Per-sample substreams: a longer batch extends a shorter one.
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        short = run_batch(params, n_samples=100, seed=5)
        long = run_batch(params, n_samples=200, seed=5)
        short_hist = dict(short.histogram)
        # every sample of the short batch appears in the long one
        long_hist = dict(long.histogram)
        assert all(long_hist.get(t, 0) >= c for t, c in short_hist.items())

    def test_single_sample_has_no_stderr(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        batch = run_batch(params, n_samples=1, seed=0)
        assert batch.stderr_t is None
        assert batch.stderr_w is None
        assert sum(dict(batch.histogram).values()) == 1

    def test_histogram_mass_equals_sample_count(self):
        params = ChainParams(n=2, p_g=0.5, p_s=0.5)
        batch = run_batch(params, n_samples=3000, seed=9)
        assert sum(c for _, c in batch.histogram) == 3000


class TestStatisticalAgreement:
    def test_single_repeater_mean_within_4_sigma(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        batch = run_batch(params, n_samples=100_000, seed=42)
        assert abs(batch.mean_t - 16.0 / 3.0) < 4.0 * batch.stderr_t

    def test_decay_factor_within_4_sigma(self):
        params = ChainParams(n=1, p_g=0.5, p_s=1.0, t_coh=HALF_LOG2)
        batch = run_batch(params, n_samples=100_000, seed=43)
        assert abs(batch.mean_w - 5.0 / 9.0) < 4.0 * batch.stderr_w

    def test_two_level_histogram_close_to_tracked_pmf(self):
        params = ChainParams(n=2, p_g=0.5, p_s=0.5)
        dist = chain_distribution(params)
        batch = run_batch(params, n_samples=100_000, seed=11)
        hist = dict(batch.histogram)
        tv = 0.5 * sum(
            abs(hist.get(t, 0) / batch.n_samples - dist.pmf[t])
            for t in range(1, dist.t_trunc + 1))
        tv += 0.5 * sum(c / batch.n_samples
                        for t, c in hist.items() if t > dist.t_trunc)
        assert tv < 0.01

    def test_cutoff_chain_ks_against_tracked(self):
        params = ChainParams(n=2, p_g=0.3, p_s=0.5, t_coh=8.0, tau=5)
        dist = chain_distribution(params, t_trunc=3000)
        batch = run_batch(params, n_samples=40_000, seed=13)
        emp = np.zeros(dist.t_trunc + 1)
        for t, c in batch.histogram:
            if t <= dist.t_trunc:
                emp[t] = c / batch.n_samples
        ks = np.abs(np.cumsum(emp) - dist.cdf()).max()
        assert ks < 1.63 / math.sqrt(batch.n_samples)  # 1% critical value

    def test_conditional_quality_per_delivery_time(self):
        # The tracked mean_w is the exact conditional expectation of the
        # delivered Werner parameter given the delivery time; empirical
        # per-time averages must agree bin by bin.
        params = ChainParams(n=1, p_g=0.5, p_s=0.5, t_coh=5.0)
        dist = chain_distribution(params, t_trunc=2000)
        n = 100_000
        sums = {}
        counts = {}
        sq_sums = {}
        for i in range(n):
            rec = sample_chain(params, None, substream(23, i))
            sums[rec.t] = sums.get(rec.t, 0.0) + rec.w
            sq_sums[rec.t] = sq_sums.get(rec.t, 0.0) + rec.w * rec.w
            counts[rec.t] = counts.get(rec.t, 0) + 1
        for t in range(2, 12):
            c = counts.get(t, 0)
            if c < 500:
                continue
            mean = sums[t] / c
            var = max(sq_sums[t] / c - mean * mean, 0.0)
            stderr = math.sqrt(var / c)
            assert abs(mean - dist.mean_w[t]) < max(4.0 * stderr, 1e-6), t

    def test_distillation_quality_within_4_sigma(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5, t_coh=6.0)
        protocol = ChainProtocol.with_distillation(1, 1)
        dist = chain_distribution(params, protocol, t_trunc=3000)
        batch = run_batch(params, protocol, n_samples=50_000, seed=17)
        assert abs(batch.mean_w - dist.mean_werner()) < 4.0 * batch.stderr_w
        assert abs(batch.mean_t - dist.mean()) < 4.0 * batch.stderr_t


class _PerSampleSubstreams:
    """The per-sample loop the batch stream replaces, as a test-only
    reference: every restart builds a new ``substream(seed, i)``."""

    def __init__(self, seed):
        self.seed = seed

    def restart(self, index):
        self.random = substream(self.seed, index).random


SEEDS = (0, 1, 2 ** 32 + 5, 2 ** 64 - 1)


class TestBatchStream:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", (0, 1, 999, 2 ** 40))
    def test_restart_replays_the_substream(self, seed, index):
        stream = montecarlo._BatchStream(seed)
        stream.restart(index)
        reference = substream(seed, index)
        # 100 draws cross several refill blocks.
        assert [stream.random() for _ in range(100)] == \
            [reference.random() for _ in range(100)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_restart_drops_a_half_used_block(self, seed):
        stream = montecarlo._BatchStream(seed)
        stream.restart(7)
        for _ in range(montecarlo._BLOCK // 2):
            stream.random()
        stream.restart(8)
        reference = substream(seed, 8)
        assert [stream.random() for _ in range(40)] == \
            [reference.random() for _ in range(40)]

    @pytest.mark.parametrize("params, protocol", [
        (ChainParams(n=2, p_g=0.3, p_s=0.5), None),
        (ChainParams(n=2, p_g=0.3, p_s=0.5, t_coh=8.0, tau=4), None),
        (ChainParams(n=1, p_g=0.5, p_s=0.5, t_coh=6.0),
         ChainProtocol.with_distillation(1, 1)),
        (ChainParams(n=2, p_g=1.0, p_s=0.5), None),
    ], ids=["swap", "cutoff", "distill", "pg1"])
    @pytest.mark.parametrize("seed", (0, 5, 2 ** 64 - 1))
    def test_batches_equal_the_per_sample_loop(self, params, protocol, seed,
                                               monkeypatch):
        batches = [run_batch(params, protocol, n_samples=300, seed=seed),
                   simulate_batch(params, protocol, n_samples=300, seed=seed)]
        monkeypatch.setattr(montecarlo, "_BatchStream", _PerSampleSubstreams)
        assert batches == [
            run_batch(params, protocol, n_samples=300, seed=seed),
            simulate_batch(params, protocol, n_samples=300, seed=seed)]

    @pytest.mark.parametrize("tau", (None, 3))
    def test_delayed_des_batch_equals_the_per_sample_loop(self, tau,
                                                          monkeypatch):
        params = ChainParams(n=2, p_g=0.4, p_s=0.5, t_coh=10.0, tau=tau)
        batch = simulate_batch(params, n_samples=300, seed=3, delay=2)
        monkeypatch.setattr(montecarlo, "_BatchStream", _PerSampleSubstreams)
        assert batch == simulate_batch(params, n_samples=300, seed=3, delay=2)


class TestSeedRange:
    @pytest.mark.parametrize("seed", (-1, 2 ** 64))
    def test_substream_rejects_seed(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            substream(seed, 0)

    @pytest.mark.parametrize("seed", (-1, 2 ** 64))
    @pytest.mark.parametrize("batch", (run_batch, simulate_batch))
    def test_batches_reject_seed(self, seed, batch):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            batch(ChainParams(n=1, p_g=0.5), n_samples=10, seed=seed)

    @pytest.mark.parametrize("seed", (1.5, 2.0))
    def test_substream_rejects_float_seed(self, seed):
        # numpy would truncate 1.5 to the key of seed 1.
        with pytest.raises(TypeError):
            substream(seed, 0)

    @pytest.mark.parametrize("batch", (run_batch, simulate_batch))
    def test_batches_reject_float_seed(self, batch):
        with pytest.raises(TypeError):
            batch(ChainParams(n=1, p_g=0.5), n_samples=10, seed=1.5)

    def test_numpy_integer_seed_keys_its_value(self):
        assert substream(np.int64(3), 0).random() == \
            substream(3, 0).random()
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        assert run_batch(params, n_samples=50, seed=np.int64(3)) == \
            run_batch(params, n_samples=50, seed=3)

    def test_largest_seed_keys_the_full_word(self):
        # Under a float cast 2**64 - 1 and 2**64 - 2 collapse to one key.
        assert substream(2 ** 64 - 1, 0).random() != \
            substream(2 ** 64 - 2, 0).random()


# The recursive sampler that the compiled per-unit closures replaced, kept
# unchanged as the bit-for-bit reference of ``run_batch``.

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


def reference_batch(params, protocol, n_samples, seed):
    """The batch of the recursive reference sampler, one fresh
    ``substream(seed, i)`` per sample."""
    protocol = ChainProtocol.for_chain(params, protocol)
    x = params.decay_per_step
    log_q = math.log1p(-params.p_g) if params.p_g < 1.0 else 0.0

    def draw(random):
        rng = SimpleNamespace(random=random)
        t, w = _sample_unit(len(protocol.plan), params, protocol, rng, x,
                            log_q)
        return SampleRecord(t=t, w=min(w, 1.0))

    with mock.patch.object(montecarlo, "_BatchStream", _PerSampleSubstreams):
        return montecarlo._batch(draw, n_samples, seed)


def _probability(low):
    """[low, 1], with the draw-free 1.0 given its own weight."""
    return st.one_of(st.just(1.0), st.floats(low, 1.0))


class TestCompiledSampler:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 3), p_g=_probability(1e-6),
           p_s=_probability(0.3),
           t_coh=st.one_of(st.just(math.inf), st.floats(1.0, 500.0)),
           tau=st.one_of(st.none(), st.integers(1, 12)),
           w0=st.floats(0.0, 1.0),
           plan=st.sampled_from(["swap", "distill each", "distill last"]),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_batch_equals_the_recursive_reference(self, n, p_g, p_s, t_coh,
                                                  tau, w0, plan, seed):
        units = {"swap": ("swap",) * n,
                 "distill each": ("distill", "swap") * n,
                 "distill last": ("swap",) * n + ("distill",)}[plan]
        # Cut-off restarts make deep or rarely generating chains too slow
        # to sample here.
        assume(tau is None or (len(units) <= 3 and p_g >= 0.3))
        params = ChainParams(n=n, p_g=p_g, p_s=p_s, t_coh=t_coh, tau=tau)
        protocol = ChainProtocol(plan=units, w0=w0)
        assert run_batch(params, protocol, n_samples=20, seed=seed) == \
            reference_batch(params, protocol, 20, seed)

    @pytest.mark.parametrize("p_s", (0.5, 1.0))
    def test_sample_chain_equals_the_reference(self, p_s):
        params = ChainParams(n=2, p_g=0.4, p_s=p_s, t_coh=30.0, tau=9)
        protocol = ChainProtocol.with_distillation(2, 1, w0=0.9)
        log_q = math.log1p(-params.p_g)
        for i in range(50):
            t, w = _sample_unit(4, params, protocol, substream(4, i),
                                params.decay_per_step, log_q)
            assert sample_chain(params, protocol, substream(4, i)) == \
                SampleRecord(t=t, w=min(w, 1.0))
