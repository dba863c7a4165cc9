import math
from fractions import Fraction

import numpy as np
import pytest

from qnd import markovchain
from qnd.chainformulas import ChainParams
from qnd.disttrack import TAIL_MASS, HorizonError, chain_distribution
from qnd.markovchain import (AbsorptionError, SwapTimeMode, build_chain,
                             absorption_stats, to_dot, waiting_pmf,
                             StateLimitError)

ZERO = SwapTimeMode.ZERO_STEP
ONE = SwapTimeMode.ONE_STEP


def label_map(chain):
    from qnd.markovchain import _state_label
    n = chain.params.segments
    return {_state_label(s, n): i for i, s in enumerate(chain.states)}


class TestBuildChain:
    def test_one_step_single_repeater_matches_textbook_graph(self):
        # 5 states; transitions carry the standard single-repeater
        # probabilities for generation and swapping.
        p_g, p_s = 0.3, 0.7
        chain = build_chain(ChainParams(n=1, p_g=p_g, p_s=p_s), ONE)
        assert chain.n_states == 5
        labels = label_map(chain)
        t = chain.tpm
        i00 = labels["00"]
        i10, i01 = labels["10"], labels["01"]
        i11 = labels["11"]
        idone = labels["[11]"]
        assert t[i00, i00] == pytest.approx((1 - p_g) ** 2)
        assert t[i00, i10] == pytest.approx(p_g * (1 - p_g))
        assert t[i00, i01] == pytest.approx(p_g * (1 - p_g))
        assert t[i00, i11] == pytest.approx(p_g ** 2)
        assert t[i10, i10] == pytest.approx(1 - p_g)
        assert t[i10, i11] == pytest.approx(p_g)
        assert t[i01, i11] == pytest.approx(p_g)
        assert t[i11, i00] == pytest.approx(1 - p_s)
        assert t[i11, idone] == pytest.approx(p_s)
        assert idone == chain.n_states - 1

    def test_zero_step_collapses_the_both_links_state(self):
        chain = build_chain(ChainParams(n=1, p_g=0.5, p_s=0.5), ZERO)
        assert chain.n_states == 4

    def test_rows_are_stochastic(self):
        for mode in (ZERO, ONE):
            for n in (1, 2):
                chain = build_chain(ChainParams(n=n, p_g=0.4, p_s=0.6), mode)
                sums = chain.tpm.sum(axis=1)
                assert np.allclose(sums, 1.0, atol=1e-12)

    def test_absorbing_rows_are_identity(self):
        chain = build_chain(ChainParams(n=1, p_g=0.5, p_s=0.5), ONE)
        row = np.zeros(chain.n_states)
        row[-1] = 1.0
        assert np.array_equal(chain.tpm[-1], row)

    def test_reachable_state_counts_grow_with_level(self):
        # Zero-step reachable states: every link configuration in which
        # no sibling pair is pending; counted combinatorially per subtree:
        # c(0) = 2 states per segment subtree (link or empty) and
        # c(L) = c(L-1)^2 non-absorbed combinations plus the merged link,
        # minus the pending pair, i.e. c(L) = c(L-1)**2 - 1 + 1.
        expected = {0: 2}
        for level in (1, 2, 3):
            expected[level] = expected[level - 1] ** 2
        for n in (1, 2, 3):
            chain = build_chain(ChainParams(n=n, p_g=0.5, p_s=0.5), ZERO)
            assert chain.n_states == expected[n]

    def test_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cut-off"):
            build_chain(ChainParams(n=1, p_g=0.5, p_s=0.5, tau=3), ZERO)

    def test_transition_limit_refuses_before_any_matrix(self, monkeypatch):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} was used before the refusal")

        monkeypatch.setattr(markovchain, "np", NoArrays())
        with pytest.raises(StateLimitError, match="3\\*\\*16 generation"):
            build_chain(ChainParams(n=4, p_g=0.1, p_s=0.5), ZERO)
        monkeypatch.setattr(markovchain, "DEFAULT_TRANSITION_LIMIT", 80)
        with pytest.raises(StateLimitError, match="limit of 80"):
            build_chain(ChainParams(n=2, p_g=0.5, p_s=0.5), ZERO)

    @pytest.mark.parametrize("mode, states", [(ZERO, 256), (ONE, 677)])
    def test_largest_chain_within_the_transition_limit(self, mode, states):
        # 3**8 <= 2**20 < 3**16: eight segments are the most a chain may
        # have, and the one-step chain there holds every set of disjoint
        # aligned dyadic links, g(8) = 677 with g(2S) = g(S)**2 + 1.
        chain = build_chain(ChainParams(n=3, p_g=0.5, p_s=0.5), mode)
        assert chain.n_states == states
        assert chain.tpm.shape == (states, states)


# The state enumerator the product build replaced, kept as an independent
# reference: it walks the reachable states from the empty one and expands
# each tick outcome by outcome.


def _empty_segments(state, n_segments):
    covered = np.zeros(n_segments, dtype=bool)
    for a, b in state:
        covered[a:b] = True
    return [i for i in range(n_segments) if not covered[i]]


def _sibling(interval, n_segments):
    a, b = interval
    length = b - a
    if length >= n_segments:
        return None
    if (a // length) % 2 == 0:
        return (b, b + length)
    return (a - length, a)


def _mergeable_pairs(state, n_segments):
    """Sibling link pairs ready to swap; each link has one unique sibling,
    so the pairs are disjoint."""
    pairs = []
    for interval in sorted(state):
        sib = _sibling(interval, n_segments)
        if sib is not None and sib in state and interval < sib:
            pairs.append((interval, sib))
    return pairs


def _subsets(items, p):
    """(probability, chosen items) over every subset of independent events,
    each item chosen with probability ``p``.  The factors multiply in item
    order; zero-probability subsets are dropped."""
    out = []
    for mask in range(1 << len(items)):
        prob = 1.0
        chosen = []
        for i, item in enumerate(items):
            if (mask >> i) & 1:
                prob *= p
                chosen.append(item)
            else:
                prob *= 1.0 - p
        if prob > 0.0:
            out.append((prob, chosen))
    return out


def _gen_outcomes(empty, p_g):
    """(probability, new elementary links) over generation subsets."""
    return [(prob, [(seg, seg + 1) for seg in done])
            for prob, done in _subsets(empty, p_g)]


def _resolve_round(state, pairs, p_s):
    """One simultaneous round of swap resolutions over disjoint pairs."""
    rest = frozenset(state).difference(*pairs)
    return [(prob, rest | {(left[0], right[1]) for left, right in merged})
            for prob, merged in _subsets(pairs, p_s)]


def _cascade_leaves(state, p_s, n_segments, factors, leaves):
    """Resolve swap rounds within one tick until no pair remains: append
    each end state to ``leaves`` in depth-first order, with the tuple of
    branch probabilities on its path."""
    pairs = _mergeable_pairs(state, n_segments)
    if not pairs:
        leaves.append((state, factors))
        return
    for branch_prob, next_state in _resolve_round(state, pairs, p_s):
        _cascade_leaves(next_state, p_s, n_segments,
                        factors + (branch_prob,), leaves)


def _transitions(state, params, mode, n_segments, cascades):
    """Distribution over successor states for one tick.

    ``cascades`` memoises the swap cascade of each post-generation state
    for one build.  A leaf's probability is replayed as the product of the
    generation probability and its branch factors, left to right, so every
    product and sum is the one an unmemoised cascade computes.
    """
    acc = {}
    p_g, p_s = params.p_g, params.p_s
    empty = _empty_segments(state, n_segments)
    if mode is SwapTimeMode.ZERO_STEP:
        for gen_prob, links in _gen_outcomes(empty, p_g):
            post = frozenset(state) | frozenset(links)
            leaves = cascades.get(post)
            if leaves is None:
                leaves = cascades[post] = []
                _cascade_leaves(post, p_s, n_segments, (), leaves)
            for leaf, factors in leaves:
                prob = gen_prob
                for factor in factors:
                    prob *= factor
                acc[leaf] = acc.get(leaf, 0.0) + prob
    else:
        pairs = _mergeable_pairs(state, n_segments)
        for swap_prob, mid_state in _resolve_round(state, pairs, p_s):
            for gen_prob, links in _gen_outcomes(empty, p_g):
                next_state = mid_state | frozenset(links)
                prob = swap_prob * gen_prob
                acc[next_state] = acc.get(next_state, 0.0) + prob
    return acc


def _enumerated_chain(params, mode):
    """(states, tpm) of the reachable chain, by a frontier walk over the
    states from the empty one."""
    n_segments = params.segments
    done = (0, n_segments)

    index = {}
    states = []
    rows = []
    cascades = {}

    def intern(state_fs):
        key = tuple(sorted(state_fs))
        if key not in index:
            index[key] = len(states)
            states.append(key)
            rows.append(None)
        return index[key]

    start = intern(frozenset())
    frontier = [start]
    while frontier:
        i = frontier.pop()
        if rows[i] is not None:
            continue
        state = frozenset(states[i])
        if done in state:
            rows[i] = {i: 1.0}
            continue
        acc = _transitions(state, params, mode, n_segments, cascades)
        row = {}
        for next_state, prob in acc.items():
            j = intern(next_state)
            row[j] = row.get(j, 0.0) + prob
        rows[i] = row
        for j in row:
            if rows[j] is None:
                frontier.append(j)

    n = len(states)
    tpm = np.zeros((n, n))
    for i, row in enumerate(rows):
        tpm[i, list(row)] = list(row.values())
    return states, tpm


class TestEnumeratorParity:
    @pytest.mark.parametrize("mode", [ZERO, ONE])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("p_g, p_s", [
        (0.5, 0.5), (0.1, 0.5), (0.05, 0.05), (0.9, 0.3), (0.3, 1.0),
        (1.0, 0.5), (1.0, 1.0)])
    def test_product_build_matches_enumeration(self, n, mode, p_g, p_s):
        params = ChainParams(n=n, p_g=p_g, p_s=p_s)
        chain = build_chain(params, mode)
        states, tpm = _enumerated_chain(params, mode)
        assert set(chain.states) == set(states)
        assert len(chain.states) == len(states)
        index = {s: i for i, s in enumerate(states)}
        perm = [index[s] for s in chain.states]
        assert np.abs(chain.tpm - tpm[np.ix_(perm, perm)]).max() <= 1e-15
        assert chain.states[0] == ()
        assert chain.states[-1] == ((0, params.segments),)


class TestAbsorptionStats:
    def test_zero_step_single_repeater(self):
        stats = absorption_stats(
            build_chain(ChainParams(n=1, p_g=0.5, p_s=0.5), ZERO))
        assert stats["mean"] == pytest.approx(16.0 / 3.0, abs=1e-9)

    def test_one_step_adds_one_tick_per_swap_round(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        zero = absorption_stats(build_chain(params, ZERO))
        one = absorption_stats(build_chain(params, ONE))
        assert one["mean"] - zero["mean"] == pytest.approx(
            1.0 / params.p_s, abs=1e-9)
        assert one["mean"] == pytest.approx(16.0 / 3.0 + 2.0, abs=1e-9)

    def test_deterministic_chain(self):
        stats = absorption_stats(
            build_chain(ChainParams(n=1, p_g=1.0, p_s=1.0), ZERO))
        assert stats["mean"] == pytest.approx(1.0)
        assert stats["variance"] == pytest.approx(0.0, abs=1e-12)

    def test_one_step_two_levels_against_direct_simulation(self):
        # Independent check of the tick convention: pairs complete at the
        # start of a tick swap during it, empty segments generate, and
        # fresh links or merges wait for the next tick.
        p_g, p_s = 0.5, 0.6
        params = ChainParams(n=2, p_g=p_g, p_s=p_s)
        rng = np.random.default_rng(424242)

        def pairs_of(links):
            found = []
            for a, b in sorted(links):
                length = b - a
                if length >= 4:
                    continue
                sib = ((b, b + length) if (a // length) % 2 == 0
                       else (a - length, a))
                if sib in links and (a, b) < sib:
                    found.append(((a, b), sib))
            return found

        def simulate_once():
            links = set()
            t = 0
            while (0, 4) not in links:
                t += 1
                pending = pairs_of(links)
                covered = set()
                for a, b in links:
                    covered.update(range(a, b))
                empty = [s for s in range(4) if s not in covered]
                for left, right in pending:
                    links.discard(left)
                    links.discard(right)
                    if rng.random() < p_s:
                        links.add((left[0], right[1]))
                for seg in empty:
                    if rng.random() < p_g:
                        links.add((seg, seg + 1))
            return t

        n = 60_000
        samples = np.array([simulate_once() for _ in range(n)])
        stats = absorption_stats(build_chain(params, ONE))
        stderr = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - stats["mean"]) < 4.0 * stderr

    def test_variance_against_pmf(self):
        chain = build_chain(ChainParams(n=1, p_g=0.5, p_s=0.5), ZERO)
        stats = absorption_stats(chain)
        dist = waiting_pmf(chain)
        assert stats["mean"] == pytest.approx(dist.mean(), abs=1e-9)
        assert math.sqrt(stats["variance"]) == pytest.approx(
            dist.stddev(), abs=1e-6)


class TestWaitingPmf:
    def test_deterministic_point_mass(self):
        chain = build_chain(ChainParams(n=1, p_g=1.0, p_s=1.0), ZERO)
        dist = waiting_pmf(chain)
        assert dist.pmf.tolist() == [0.0, 1.0]

    def test_matches_distribution_tracking_entrywise(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        pmf_markov = waiting_pmf(build_chain(params, ZERO))
        pmf_track = chain_distribution(params, t_trunc=pmf_markov.t_trunc)
        assert np.abs(pmf_markov.pmf - pmf_track.pmf).max() <= 1e-9

    def test_matches_tracking_for_two_levels(self):
        params = ChainParams(n=2, p_g=0.5, p_s=0.5)
        pmf_markov = waiting_pmf(build_chain(params, ZERO))
        pmf_track = chain_distribution(params, t_trunc=pmf_markov.t_trunc)
        assert np.abs(pmf_markov.pmf - pmf_track.pmf).max() <= 1e-9

    def test_matches_tracking_for_three_levels(self):
        params = ChainParams(n=3, p_g=0.5, p_s=0.5)
        pmf_markov = waiting_pmf(build_chain(params, ZERO))
        pmf_track = chain_distribution(params, t_trunc=pmf_markov.t_trunc)
        assert np.abs(pmf_markov.pmf - pmf_track.pmf).max() <= 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_tail_against_exact_recursion(self, n):
        # Exact propagation of the whole distribution on the same matrix.
        # The pmf falls to 4e-13 (n = 1) by t = 120, far below the rounding
        # of an absorbed mass near 1.
        chain = build_chain(ChainParams(n=n, p_g=0.5, p_s=0.5), ZERO)
        tpm = [[Fraction(v) for v in row] for row in chain.tpm.tolist()]
        dist = [Fraction(int(i == 0)) for i in range(chain.n_states)]
        absorbed = Fraction(0)
        got = waiting_pmf(chain).pmf
        for t in range(1, 121):
            dist = [sum(d * row[j] for d, row in zip(dist, tpm) if row[j])
                    for j in range(chain.n_states)]
            now = dist[-1]
            exact, absorbed = now - absorbed, now
            assert abs(Fraction(got[t]) - exact) <= Fraction(1, 10**12) * exact

    def test_partial_sums_converge_to_one(self):
        chain = build_chain(ChainParams(n=2, p_g=0.5, p_s=0.5), ZERO)
        dist = waiting_pmf(chain)
        masses = [dist.pmf[:t + 1].sum() for t in (50, 200)]
        masses.append(dist.captured_mass)
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert masses[-1] >= 1.0 - 1e-14

    def test_quality_absent(self):
        chain = build_chain(ChainParams(n=1, p_g=0.5, p_s=0.5), ZERO)
        assert waiting_pmf(chain).mean_w is None

    @pytest.mark.parametrize("mode", [ZERO, ONE])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_self_sized_moments_match_absorption_stats(self, n, mode):
        chain = build_chain(ChainParams(n=n, p_g=0.5, p_s=0.5), mode)
        stats = absorption_stats(chain)
        dist = waiting_pmf(chain)
        assert dist.mean() == pytest.approx(stats["mean"], rel=1e-12)
        assert dist.stddev() == pytest.approx(math.sqrt(stats["variance"]),
                                              rel=1e-9)

    def test_ends_once_the_tail_mass_is_left(self):
        # The transient mass after tick t is 0.9**t: the PMF ends at the
        # first t where it is at most TAIL_MASS, not before.
        chain = build_chain(ChainParams(n=0, p_g=0.1), ZERO)
        t_end = waiting_pmf(chain).t_trunc
        assert 0.9 ** t_end <= TAIL_MASS < 0.9 ** (t_end - 1)

    def test_a_heavy_tail_runs_past_the_first_guess(self, monkeypatch):
        # Mean 2: 0.99 absorbs at once, 0.01 waits on a state that leaves
        # with probability 0.01 a tick.  The tail outlasts 36.8 times the
        # mean by far, so the loop, not the first guess, ends the PMF.
        from qnd.markovchain import RepeaterMarkovChain
        tpm = np.array([[0.0, 0.01, 0.99], [0.0, 0.99, 0.01],
                        [0.0, 0.0, 1.0]])
        chain = RepeaterMarkovChain(
            states=((), ((0, 1),), ((0, 2),)), tpm=tpm, swap_time_mode=ZERO,
            params=ChainParams(n=1, p_g=0.5, p_s=0.5))
        assert absorption_stats(chain)["mean"] == pytest.approx(2.0)
        dist = waiting_pmf(chain)
        assert dist.t_trunc > 1000
        assert dist.captured_mass >= 1.0 - 1e-14
        monkeypatch.setattr(markovchain, "HORIZON_LIMIT", 100)
        with pytest.raises(HorizonError, match="reached the default limit"):
            waiting_pmf(chain)

    def test_long_chain_refused_before_any_step(self):
        # 36.8 times a mean of 3e6 ticks exceeds HORIZON_LIMIT.
        chain = build_chain(ChainParams(n=1, p_g=1e-6, p_s=0.5), ZERO)
        with pytest.raises(HorizonError, match="beyond the default limit"):
            waiting_pmf(chain)


class TestDotExport:
    def test_single_repeater_graph(self):
        chain = build_chain(ChainParams(n=1, p_g=0.5, p_s=0.5), ONE)
        dot = to_dot(chain)
        assert dot.startswith("digraph")
        for label in ("00", "01", "10", "11", "[11]"):
            assert f'"{label}"' in dot
        assert "doublecircle" in dot
        assert "0.25" in dot  # p_g * (1 - p_g) and p_g ** 2 edges


class TestAbsorptionReachability:
    def test_unreachable_absorption_detected(self):
        from qnd.markovchain import RepeaterMarkovChain
        # A hand-built chain whose transient state loops forever.
        tpm = np.array([[1.0, 0.0], [0.0, 1.0]])
        chain = RepeaterMarkovChain(
            states=((), ((0, 2),)), tpm=tpm, swap_time_mode=ZERO,
            params=ChainParams(n=1, p_g=0.5, p_s=0.5))
        with pytest.raises(AbsorptionError):
            absorption_stats(chain)

    def test_absorption_reached_through_transient_states(self):
        from qnd.markovchain import RepeaterMarkovChain
        # States 0 and 1 reach the absorbing state 3 only through state 2:
        # the fixed point needs two rounds to find them.
        tpm = np.array([[0.5, 0.0, 0.5, 0.0],
                        [0.0, 0.5, 0.5, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                        [0.0, 0.0, 0.0, 1.0]])
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        chain = RepeaterMarkovChain(
            states=((), ((0, 1),), ((1, 2),), ((0, 2),)), tpm=tpm,
            swap_time_mode=ZERO, params=params)
        assert absorption_stats(chain)["mean"] == pytest.approx(3.0)
        tpm[2] = [0.0, 0.0, 1.0, 0.0]  # state 2 now loops forever
        before = tpm.copy()
        with pytest.raises(AbsorptionError, match="cannot reach"):
            absorption_stats(chain)
        assert np.array_equal(chain.tpm, before)  # the check is read-only
