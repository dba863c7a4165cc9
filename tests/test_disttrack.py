import math

import numpy as np
import pytest

from qnd import disttrack
from qnd.chainformulas import ChainParams, decay_factor, det_swap_mean
from qnd.disttrack import (ChainProtocol, HorizonError, TruncatedDistribution,
                           _fft_len, chain_distribution, compound_geometric,
                           distill_output_w, distill_success_prob,
                           distribution_csv, distribution_summary,
                           geometric_pmf, max_combine, werner_to_fidelity)
from qnd.markovchain import absorption_stats, build_chain
from qnd.montecarlo import _unit_outcome, run_batch

HALF_LOG2 = 1.0 / math.log(2.0)  # t_coh with per-step decay exactly 0.5


class TestGeometricPmf:
    def test_certain_generation(self):
        d = geometric_pmf(1.0, 5)
        assert d.pmf[1] == 1.0
        assert d.pmf[2:].sum() == 0.0

    def test_half_three_steps(self):
        d = geometric_pmf(0.5, 3)
        assert list(d.pmf[1:]) == pytest.approx([0.5, 0.25, 0.125])
        assert d.captured_mass == pytest.approx(0.875)

    def test_tail_bound_at_sixty(self):
        d = geometric_pmf(0.5, 60)
        assert d.captured_mass >= 1.0 - 1e-18

    def test_w0_recorded(self):
        d = geometric_pmf(0.5, 10, w0=0.8)
        assert np.all(d.mean_w[1:] == 0.8)

    def test_mean(self):
        d = geometric_pmf(0.25, 400)
        assert d.mean() == pytest.approx(4.0, abs=1e-9)

    def test_extended_pads_with_zeros(self):
        d = geometric_pmf(0.5, 20)
        wide = d.extended(50)
        assert wide.t_trunc == 50
        assert np.array_equal(wide.pmf[:21], d.pmf)
        assert wide.pmf[21:].sum() == 0.0
        assert wide.captured_mass == pytest.approx(d.captured_mass)
        # Combining works across the padding; the short input's missing
        # tail (0.5**20 of mass) biases the mean by about 2e-5.
        out = max_combine(wide, geometric_pmf(0.5, 50))
        assert out.mean() == pytest.approx(8.0 / 3.0, abs=1e-4)
        with pytest.raises(ValueError):
            d.extended(10)


class TestInvariants:
    def test_pmf_zero_slot_enforced(self):
        with pytest.raises(ValueError):
            TruncatedDistribution(pmf=np.array([0.1, 0.9]))

    def test_mass_cap(self):
        with pytest.raises(ValueError):
            TruncatedDistribution(pmf=np.array([0.0, 0.7, 0.7]))

    def test_mean_w_range_checked(self):
        with pytest.raises(ValueError):
            TruncatedDistribution(pmf=np.array([0.0, 1.0]),
                                  mean_w=np.array([0.0, 1.5]))


def fidelity_to_werner(fidelity):
    """Inverse of F = (1 + 3w) / 4."""
    return (4.0 * fidelity - 1.0) / 3.0


class TestWernerAlgebra:
    # A deterministic swap (p_s = 1) draws no uniform, so no stream is given.
    def test_swap_perfect(self):
        assert _unit_outcome("swap", 1.0, 1.0, 1.0, None) == 1.0

    def test_swap_mixed_absorbs(self):
        assert _unit_outcome("swap", 0.7, 0.0, 1.0, None) == 0.0

    def test_fidelity_conversions(self):
        assert werner_to_fidelity(1.0) == 1.0
        assert werner_to_fidelity(0.0) == 0.25
        for w in np.linspace(0, 1, 11):
            assert fidelity_to_werner(werner_to_fidelity(w)) == \
                pytest.approx(w)


def _bell_state(which):
    v = np.zeros(4)
    if which == 0:
        v[0] = v[3] = 1.0
    elif which == 1:
        v[0], v[3] = 1.0, -1.0
    elif which == 2:
        v[1] = v[2] = 1.0
    else:
        v[1], v[2] = 1.0, -1.0
    return v / math.sqrt(2.0)


def _werner_matrix(fidelity):
    rho = fidelity * np.outer(_bell_state(0), _bell_state(0))
    for b in (1, 2, 3):
        rho += (1.0 - fidelity) / 3.0 * np.outer(_bell_state(b),
                                                 _bell_state(b))
    return rho


def _cnot(control, target, n_qubits=4):
    dim = 2 ** n_qubits
    u = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        if bits[control]:
            bits[target] ^= 1
        j = sum(b << (n_qubits - 1 - q) for q, b in enumerate(bits))
        u[j, idx] = 1.0
    return u


def distill_oracle(f1, f2):
    """Brute-force two-pair distillation on Werner inputs: bilateral CNOT,
    measure the second pair, keep equal outcomes; exact 16 x 16 algebra."""
    rho = np.kron(_werner_matrix(f1), _werner_matrix(f2))
    u = _cnot(0, 2) @ _cnot(1, 3)
    rho = u @ rho @ u.T
    kept = np.zeros((4, 4))
    p = 0.0
    for outcome in (0, 3):  # measured qubits read 00 or 11
        sel = [(a1b1 << 2) | outcome for a1b1 in range(4)]
        block = rho[np.ix_(sel, sel)]
        p += float(np.trace(block))
        kept += block
    kept /= p
    f_out = float(_bell_state(0) @ kept @ _bell_state(0))
    return p, f_out


def distill(f1, f2):
    """Success probability and output fidelity of the per-state formulas
    on inputs of fidelity f1, f2."""
    w1, w2 = fidelity_to_werner(f1), fidelity_to_werner(f2)
    return (distill_success_prob(w1, w2),
            float(werner_to_fidelity(distill_output_w(w1, w2))))


class TestDistillation:
    def test_perfect_inputs_fixed_point(self):
        assert distill_success_prob(1.0, 1.0) == 1.0
        assert distill_output_w(1.0, 1.0) == 1.0

    def test_success_probability_at_least_half(self):
        for w1 in np.linspace(0, 1, 7):
            for w2 in np.linspace(0, 1, 7):
                assert 0.5 <= distill_success_prob(w1, w2) <= 1.0

    def test_against_density_matrix_oracle(self):
        for f1 in np.linspace(0.5, 1.0, 10):
            for f2 in np.linspace(0.5, 1.0, 10):
                p_ref, f_ref = distill_oracle(f1, f2)
                prob, fidelity = distill(f1, f2)
                assert prob == pytest.approx(p_ref, abs=1e-12)
                assert fidelity == pytest.approx(f_ref, abs=1e-12)

    def test_seven_tenths_example(self):
        p_ref, f_ref = distill_oracle(0.7, 0.7)
        prob, fidelity = distill(0.7, 0.7)
        assert prob == pytest.approx(p_ref, abs=1e-12)
        assert fidelity == pytest.approx(f_ref, abs=1e-12)
        assert f_ref > 0.7  # distillation improves above the fixed point

    @pytest.mark.parametrize("x", [1.0, 0.97])
    @pytest.mark.parametrize("gap", [0, 1, 2, 3])
    @pytest.mark.parametrize("w1, w2", [(0.9, 0.8), (0.6, 1.0), (0.0, 0.7)])
    @pytest.mark.parametrize("swap_sides", [False, True])
    def test_tracker_round_masses_match_the_per_state_formulas(
            self, x, gap, w1, w2, swap_sides):
        # The earlier link delivers w1 at t1, the later one w2 at
        # t2 = t1 + gap: the round is ready at t2, with the earlier link
        # decayed by x**gap while stored.
        t1, t2, n = 2, 2 + gap, 8
        p1, p2 = np.zeros(n), np.zeros(n)
        p1[t1] = p2[t2] = 1.0
        sides = [(p1, w1 * p1), (p2, w2 * p2)]
        if swap_sides:
            sides.reverse()
        (pa, ua), (pb, ub) = sides
        _, (success, w_mass), _, _ = disttrack._unit_rounds(
            "distill", pa, ua, pb, ub, x, None)
        w1_stored = w1 * x ** gap
        prob = distill_success_prob(w1_stored, w2)
        expected_success = np.zeros(n)
        expected_success[t2] = prob
        expected_mass = np.zeros(n)
        expected_mass[t2] = distill_output_w(w1_stored, w2) * prob
        np.testing.assert_allclose(success, expected_success, rtol=1e-15,
                                   atol=0.0)
        np.testing.assert_allclose(w_mass, expected_mass, rtol=1e-15,
                                   atol=0.0)


class TestMaxCombine:
    def test_point_masses(self):
        d = geometric_pmf(1.0, 10)
        out = max_combine(d, d)
        assert out.pmf[1] == pytest.approx(1.0)
        assert out.mean_w[1] == pytest.approx(1.0)

    def test_mean_of_two_geometrics(self):
        d = geometric_pmf(0.5, 300)
        out = max_combine(d, d)
        assert out.mean() == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_pre_swap_decay_factor(self):
        d = geometric_pmf(0.5, 400)
        out = max_combine(d, d, t_coh=HALF_LOG2)
        assert out.mean_werner() == pytest.approx(5.0 / 9.0, abs=1e-9)

    def test_decay_matches_closed_form_on_grid(self):
        for p in (0.2, 0.5, 0.8):
            for x in (0.3, 0.7, 0.95):
                d = geometric_pmf(p, 2000)
                out = max_combine(d, d, t_coh=-1.0 / math.log(x))
                assert out.mean_werner() == pytest.approx(
                    decay_factor(p, x), abs=1e-9)

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            max_combine(geometric_pmf(0.5, 10), geometric_pmf(0.5, 20))

    def test_cutoff_restart_inflates_mean(self):
        d = geometric_pmf(0.3, 2000)
        base = max_combine(d, d)
        cut = max_combine(d, d, tau=2)
        assert cut.mean() > base.mean()
        assert cut.captured_mass == pytest.approx(1.0, abs=1e-9)

    def test_cutoff_never_helps_quality_less(self):
        d = geometric_pmf(0.3, 2000)
        base = max_combine(d, d, t_coh=4.0)
        cut = max_combine(d, d, t_coh=4.0, tau=3)
        assert cut.mean_werner() >= base.mean_werner()

    def test_cutoff_unsatisfiable_raises(self):
        # Deterministic arrivals 9 steps apart can never meet a cut-off
        # of 2; every round fails and the unit cannot complete.
        d1 = geometric_pmf(1.0, 40)
        d2 = TruncatedDistribution(
            pmf=np.concatenate([np.zeros(10), [1.0], np.zeros(30)]),
            mean_w=np.concatenate([np.zeros(10), [1.0], np.zeros(30)]))
        with pytest.raises(HorizonError):
            max_combine(d1, d2, tau=2)

    def test_cutoff_decay_quality_against_brute_force(self):
        # Unnormalized quality mass under cut-off restarts, enumerated
        # directly: rounds are iid, a success at max(t1,t2) carries
        # x**|t1-t2| and a failure shifts time by min(t1,t2) + tau.
        p, tau, horizon, x = 0.4, 2, 60, 0.8
        d = geometric_pmf(p, horizon)
        out = max_combine(d, d, t_coh=-1.0 / math.log(x), tau=tau)
        success_w = np.zeros(horizon + 1)
        fail = np.zeros(horizon + 1)
        for t1 in range(1, horizon + 1):
            for t2 in range(1, horizon + 1):
                pr = d.pmf[t1] * d.pmf[t2]
                if abs(t1 - t2) <= tau:
                    success_w[max(t1, t2)] += pr * x ** abs(t1 - t2)
                else:
                    waste = min(t1, t2) + tau
                    if waste <= horizon:
                        fail[waste] += pr
        acc = success_w.copy()
        kernel = fail.copy()
        for _ in range(50):
            acc = acc + np.convolve(kernel, success_w)[:horizon + 1]
            kernel = np.convolve(kernel, fail)[:horizon + 1]
        got = out.pmf * out.mean_w
        assert np.abs(got - acc).max() < 1e-9

    def test_cutoff_brute_force_small_horizon(self):
        # Enumerate restart rounds directly for a tiny case.
        p, tau, horizon = 0.5, 1, 40
        d = geometric_pmf(p, horizon)
        out = max_combine(d, d, tau=tau)
        pmf = np.zeros(horizon + 1)
        # success round: both arrive with |t1 - t2| <= 1
        success = np.zeros(horizon + 1)
        fail_mass = 0.0
        fail = np.zeros(horizon + 1)
        for t1 in range(1, horizon + 1):
            for t2 in range(1, horizon + 1):
                pr = d.pmf[t1] * d.pmf[t2]
                if abs(t1 - t2) <= tau:
                    success[max(t1, t2)] += pr
                else:
                    waste = min(t1, t2) + tau
                    if waste <= horizon:
                        fail[waste] += pr
                    fail_mass += pr
        acc = success.copy()
        kernel = fail.copy()
        for _ in range(40):  # geometric number of failure rounds
            acc_prev = acc
            conv = np.convolve(kernel, success)[:horizon + 1]
            acc = acc_prev + conv
            kernel = np.convolve(kernel, fail)[:horizon + 1]
        assert np.abs(acc - out.pmf).max() < 1e-9


class TestCompoundGeometric:
    def test_certain_swap_identity(self):
        d = max_combine(geometric_pmf(0.5, 200), geometric_pmf(0.5, 200))
        out = compound_geometric(d, 1.0)
        assert np.abs(out.pmf - d.pmf).max() < 1e-12

    def test_point_mass_gives_geometric(self):
        d = geometric_pmf(1.0, 30)
        out = compound_geometric(d, 0.5)
        for t in range(1, 31):
            assert out.pmf[t] == pytest.approx(0.5 ** t, abs=1e-12)

    def test_single_repeater_mean(self):
        d = geometric_pmf(0.5, 400)
        out = compound_geometric(max_combine(d, d), 0.5)
        assert out.mean() == pytest.approx(16.0 / 3.0, abs=1e-9)


class TestChainDistribution:
    def test_level_zero_is_geometric(self):
        params = ChainParams(n=0, p_g=0.3)
        d = chain_distribution(params, t_trunc=200)
        ref = geometric_pmf(0.3, 200)
        assert np.abs(d.pmf - ref.pmf).max() < 1e-12

    def test_single_repeater_mean(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        d = chain_distribution(params, t_trunc=400)
        assert d.mean() == pytest.approx(16.0 / 3.0, abs=1e-6)

    def test_deviation_peaks_before_the_mean(self):
        # The exact n = 2 distribution differs from its moment-matched
        # geometric most at short waiting times.
        params = ChainParams(n=2, p_g=0.5, p_s=0.5)
        d = chain_distribution(params)
        mean = d.mean()
        geo = geometric_pmf(1.0 / mean, d.t_trunc)
        deviation = np.abs(d.pmf - geo.pmf)
        assert np.argmax(deviation) < mean

    def test_perfect_memory_w_is_w0_power(self):
        params = ChainParams(n=2, p_g=0.5, p_s=0.5)
        d = chain_distribution(params, ChainProtocol.swap_only(2, w0=0.9))
        # Bins at FFT roundoff scale carry no reliable quality estimate.
        support = d.pmf > 1e-9
        assert np.allclose(d.mean_w[support], 0.9 ** 4, atol=1e-9)

    def test_cutoff_raises_quality_and_mean(self):
        base = chain_distribution(
            ChainParams(n=1, p_g=0.3, p_s=0.5, t_coh=5.0), t_trunc=2000)
        cut = chain_distribution(
            ChainParams(n=1, p_g=0.3, p_s=0.5, t_coh=5.0, tau=4),
            t_trunc=2000)
        assert cut.mean_werner() >= base.mean_werner()
        assert cut.mean() >= base.mean()

    def test_deterministic_swaps_match_closed_form(self):
        # With p_s = 1 the delivery time is the max of 2**n geometrics.
        for n in (1, 2, 3):
            params = ChainParams(n=n, p_g=0.4)
            d = chain_distribution(params)
            assert d.mean() == pytest.approx(
                det_swap_mean(2 ** n, 0.4), abs=1e-9)

    def test_horizon_error(self):
        with pytest.raises(HorizonError, match="captured mass"):
            chain_distribution(ChainParams(n=2, p_g=0.1, p_s=0.1),
                               t_trunc=50)

    def test_protocol_swap_count_checked(self):
        with pytest.raises(ValueError, match="swaps"):
            chain_distribution(ChainParams(n=2, p_g=0.5),
                               ChainProtocol.swap_only(1))

    def test_distillation_improves_quality_without_decay(self):
        # With perfect memories one round on w0 = 0.8 pairs lifts each
        # side to (2 w0 + 4 w0^2) / (3 (1 + w0^2)) before the swap.
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        plain = chain_distribution(
            params, ChainProtocol.swap_only(1, w0=0.8), t_trunc=2000)
        purified = chain_distribution(
            params, ChainProtocol.with_distillation(1, 1, w0=0.8),
            t_trunc=2000)
        w_dist = (2 * 0.8 + 4 * 0.8 ** 2) / (3 * (1 + 0.8 ** 2))
        assert plain.mean_werner() == pytest.approx(0.64, abs=1e-9)
        assert purified.mean_werner() == pytest.approx(w_dist ** 2, abs=1e-9)
        assert purified.mean_werner() > plain.mean_werner()
        assert purified.mean() > plain.mean()

    def test_distillation_with_decay_matches_its_own_tradeoff(self):
        # Extra waiting can cost more quality than purification gains;
        # the tracked value stays internally consistent (cross-checked
        # against sampling in the Monte Carlo test module).
        params = ChainParams(n=1, p_g=0.5, p_s=0.5, t_coh=6.0)
        purified = chain_distribution(
            params, ChainProtocol.with_distillation(1, 1), t_trunc=3000)
        assert 0.0 < purified.mean_werner() < 1.0
        assert purified.captured_mass == pytest.approx(1.0, abs=1e-9)

    def test_captured_mass_nonincreasing_through_units(self):
        d = geometric_pmf(0.5, 120)
        combined = max_combine(d, d)
        assert combined.captured_mass <= d.captured_mass + 1e-12
        swapped = compound_geometric(combined, 0.5)
        assert swapped.captured_mass <= combined.captured_mass + 1e-12


class TestCertifiedHorizons:
    @pytest.mark.parametrize("kwargs, seed", [
        (dict(n=2, p_g=0.05, p_s=0.5, t_coh=20.0, tau=5), 21),
        (dict(n=3, p_g=0.05, p_s=0.8, t_coh=50.0, tau=10), 22)])
    def test_cutoff_chains_meet_the_floor_and_agree_with_mc(self, kwargs,
                                                            seed):
        # A crude mean estimate that ignores cut-off restarts sized these
        # horizons to about 1 - 5e-5 of the mass.
        params = ChainParams(**kwargs)
        dist = chain_distribution(params)
        assert dist.captured_mass >= 1.0 - 1e-12
        batch = run_batch(params, n_samples=2000, seed=seed)
        assert abs(dist.mean() - batch.mean_t) < 4.0 * batch.stderr_t
        assert abs(dist.mean_werner() - batch.mean_w) < 4.0 * batch.stderr_w

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p_g", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("p_s", [0.3, 1.0])
    def test_swap_only_means_match_markov_and_closed_form(self, n, p_g,
                                                          p_s):
        params = ChainParams(n=n, p_g=p_g, p_s=p_s)
        dist = chain_distribution(params)
        assert dist.captured_mass >= 1.0 - 1e-12
        markov = absorption_stats(build_chain(params))["mean"]
        assert dist.mean() == pytest.approx(markov, rel=1e-9)
        if p_s == 1.0:
            assert dist.mean() == pytest.approx(det_swap_mean(2 ** n, p_g),
                                                rel=1e-12)

    @pytest.mark.parametrize("params, protocol", [
        (ChainParams(n=3, p_g=0.1, p_s=0.5), None),
        (ChainParams(n=2, p_g=0.2, p_s=0.5, t_coh=30.0, tau=8), None),
        (ChainParams(n=1, p_g=0.3, p_s=0.7, t_coh=20.0, tau=6),
         ChainProtocol.with_distillation(1, 1, w0=0.95))])
    def test_t_trunc_only_sets_the_output_length(self, params, protocol):
        full = chain_distribution(params, protocol)
        # Capped at half the certified horizon the last level drops about
        # 1e-8 of the mass; what the FFT wraps around, the mass beyond the
        # full horizon, is at rounding level.
        for t_trunc in (full.t_trunc // 2, full.t_trunc - 1,
                        full.t_trunc + 50):
            short = chain_distribution(params, protocol, t_trunc=t_trunc,
                                       mass_floor=None)
            assert short.t_trunc == t_trunc
            common = min(t_trunc, full.t_trunc) + 1
            assert np.abs(short.pmf[:common] - full.pmf[:common]).max() \
                <= 1e-14
            quality = short.pmf * short.mean_w
            quality_full = full.pmf * full.mean_w
            assert np.abs(quality[:common] - quality_full[:common]).max() \
                <= 1e-14
            assert short.pmf[common:].sum() == 0.0

    def test_short_first_guess_is_doubled_until_certified(self,
                                                          monkeypatch):
        from qnd import disttrack
        params = ChainParams(n=3, p_g=0.05, p_s=0.5, t_coh=100.0, tau=50)
        reference = chain_distribution(params)
        calls = []
        renewal_sum = disttrack._renewal_sum
        renewal_law = disttrack._renewal_law

        def counting(kernel, firsts, n, *args):
            calls.append(n)
            return renewal_sum(kernel, firsts, n, *args)

        def understated(*args):
            mass, mean, ending = renewal_law(*args)
            return mass, mean / 16.0, ending

        # First guesses of ln(1e16) / 16 ~ 2.3 mean delivery times drop
        # about a tenth of each unit level's mass.
        monkeypatch.setattr(disttrack, "_renewal_law", understated)
        monkeypatch.setattr(disttrack, "_renewal_sum", counting)
        dist = chain_distribution(params)
        assert len(calls) > params.n
        assert dist.captured_mass >= 1.0 - 1e-12
        assert dist.mean() == pytest.approx(reference.mean(), rel=1e-10)
        assert dist.mean_werner() == pytest.approx(reference.mean_werner(),
                                                   rel=1e-10)

    @pytest.mark.parametrize("n", [0, 1])
    def test_elementary_rounding_needs_no_longer_horizon(self, n):
        # fl(1 - 0.0007) lies below 1 - 0.0007, so the geometric sum falls
        # 4.9e-14 short of 1 on any horizon; an audit against mass 1
        # doubled this level without end.
        dist = chain_distribution(ChainParams(n=n, p_g=0.0007, p_s=0.5))
        assert dist.captured_mass >= 1.0 - 1e-12
        assert dist.t_trunc < 40 * 3 ** n / 0.0007

    def test_rounding_shortfall_stops_the_doubling(self, monkeypatch):
        from qnd import disttrack
        params = ChainParams(n=2, p_g=0.1, p_s=0.5)
        reference = chain_distribution(params)
        calls = []
        renewal_sum = disttrack._renewal_sum
        renewal_law = disttrack._renewal_law

        def counting(kernel, firsts, n, *args):
            calls.append(n)
            return renewal_sum(kernel, firsts, n, *args)

        def overstated(*args):
            mass, mean, ending = renewal_law(*args)
            return mass + 1e-13, mean, ending

        # A reference mass that no horizon reaches: one doubling captures
        # nothing more, and the level is accepted.
        monkeypatch.setattr(disttrack, "_renewal_sum", counting)
        monkeypatch.setattr(disttrack, "_renewal_law", overstated)
        dist = chain_distribution(params)
        assert calls[1] == 2 * calls[0] - 1 and len(calls) == 4
        common = reference.t_trunc + 1
        assert np.abs(dist.pmf[:common] - reference.pmf).max() <= 1e-14

    def test_horizon_limit_refuses_unit_levels_only(self, monkeypatch):
        from qnd import disttrack
        params = ChainParams(n=2, p_g=0.1, p_s=0.5)
        horizon = chain_distribution(params).t_trunc
        monkeypatch.setattr(disttrack, "HORIZON_LIMIT", horizon)
        assert chain_distribution(params).t_trunc == horizon
        monkeypatch.setattr(disttrack, "HORIZON_LIMIT", horizon - 1)
        with pytest.raises(HorizonError, match="beyond the default limit"):
            chain_distribution(params)
        assert chain_distribution(params, t_trunc=horizon).t_trunc == horizon
        # The elementary level alone is closed form and never refused.
        monkeypatch.setattr(disttrack, "HORIZON_LIMIT", 10)
        assert chain_distribution(ChainParams(n=0, p_g=0.1)).t_trunc > 10
        with pytest.raises(HorizonError, match="beyond the default limit"):
            chain_distribution(ChainParams(n=1, p_g=0.1))

    def test_uncapped_horizon_beyond_the_limit_is_refused(self):
        # A cut-off of one step puts the last level's mean near 1.6e7 steps:
        # refused before any array of that length is allocated.
        params = ChainParams(n=3, p_g=0.1, p_s=0.5, t_coh=50.0, tau=1)
        with pytest.raises(HorizonError, match="beyond the default limit"):
            chain_distribution(params)

    def test_fft_len_is_the_least_5_smooth_length(self):
        smooth = sorted(2 ** i * 3 ** j * 5 ** k for i in range(25)
                        for j in range(16) for k in range(11))
        for n in list(range(1, 300)) + [591203, 5_000_001]:
            assert _fft_len(n) == next(m for m in smooth if m >= 2 * n)


class TestForChain:
    def test_default_and_given_protocol(self):
        params = ChainParams(n=2, p_g=0.5)
        assert ChainProtocol.for_chain(params) == ChainProtocol.swap_only(2)
        given = ChainProtocol.with_distillation(2, 1, w0=0.9)
        assert ChainProtocol.for_chain(params, given) is given

    @pytest.mark.parametrize("caller", [
        "chain_distribution", "default_horizon", "sample_chain",
        "run_batch", "ChainSimulation", "simulate_batch"])
    def test_swap_count_mismatch_raises_before_any_draw(self, caller,
                                                        monkeypatch):
        from qnd import deskernel, disttrack, montecarlo
        drawn = []

        def substream(seed, index):
            drawn.append(index)
            return np.random.default_rng(0)

        monkeypatch.setattr(montecarlo, "substream", substream)
        monkeypatch.setattr(deskernel, "substream", substream)
        params = ChainParams(n=2, p_g=0.5)
        protocol = ChainProtocol.swap_only(1)
        call = {
            "chain_distribution": lambda: disttrack.chain_distribution(
                params, protocol),
            "default_horizon": lambda: disttrack.default_horizon(
                params, protocol),
            "sample_chain": lambda: montecarlo.sample_chain(
                params, protocol, np.random.default_rng(0)),
            "run_batch": lambda: montecarlo.run_batch(
                params, protocol, n_samples=5),
            "ChainSimulation": lambda: deskernel.ChainSimulation(
                params, protocol),
            "simulate_batch": lambda: deskernel.simulate_batch(
                params, protocol, n_samples=5),
        }[caller]
        with pytest.raises(ValueError,
                           match="protocol has 1 swaps but params.n = 2"):
            call()
        assert drawn == []


class TestExports:
    def test_csv_schema(self):
        d = chain_distribution(ChainParams(n=1, p_g=0.5, p_s=0.5),
                               t_trunc=50, mass_floor=None)
        text = distribution_csv(d)
        lines = text.strip().split("\n")
        assert lines[0] == "t,pmf,cdf,mean_w,mean_F"
        assert len(lines) == 51
        assert lines[1].startswith("1,")

    def test_summary_fields(self):
        d = chain_distribution(ChainParams(n=1, p_g=0.5, p_s=0.5),
                               t_trunc=400)
        summary = distribution_summary(d)
        assert set(summary) == {"mean", "stddev", "captured_mass"}
        assert summary["mean"] == pytest.approx(16.0 / 3.0, abs=1e-6)
