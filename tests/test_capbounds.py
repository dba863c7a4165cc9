import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd import capbounds, flows, lpcore
from qnd.capbounds import (BoundReport, UsageUnit, bipartite_bounds,
                           multipair_bounds, multipartite_bounds)
from qnd.flows import FlowAssignment, FlowObjective
from qnd.netmodel import (Edge, Explicit, Lossy, Measure, NetworkSpec,
                          NetworkValidationError, channel_value,
                          parse_network, undirect)

NET = UsageUnit.PER_NETWORK_USE
CHAN = UsageUnit.PER_CHANNEL_USE
FIXED = UsageUnit.FIXED_Q


def lossy_chain(n_segments, eta=0.5, q=1.0):
    nodes = ["A"] + [f"M{i}" for i in range(1, n_segments)] + ["B"]
    edges = [Edge(nodes[i], nodes[i + 1], Lossy(eta), q=q)
             for i in range(n_segments)]
    return NetworkSpec(nodes=tuple(nodes), edges=tuple(edges))


def explicit_net(nodes, pairs_weights, commodities=(), users=None):
    edges = tuple(Edge(a, b, Explicit(E, Q)) for a, b, E, Q in pairs_weights)
    return NetworkSpec(nodes=tuple(nodes), edges=edges,
                       commodities=tuple(commodities), users=users)


def lossy_grid(rng, k):
    """A k x k grid of pure-loss channels, one directed edge per
    neighbouring pair, with random orientation, eta and usage weight."""
    nodes = [f"r{i}c{j}" for i in range(k) for j in range(k)]
    edges = []
    for i, j in itertools.product(range(k), repeat=2):
        for di, dj in ((0, 1), (1, 0)):
            if i + di < k and j + dj < k:
                ends = [f"r{i}c{j}", f"r{i + di}c{j + dj}"]
                if rng.random() < 0.5:
                    ends.reverse()
                edges.append(Edge(*ends, Lossy(float(rng.uniform(0.2, 0.9))),
                                  q=float(rng.uniform(0.5, 1.5))))
    last = f"r{k - 1}c{k - 1}"
    return NetworkSpec(nodes=tuple(nodes), edges=tuple(edges),
                       commodities=(("r0c0", last),
                                    (f"r0c{k - 1}", f"r{k - 1}c0")),
                       users=("r0c0", f"r0c{k - 1}", last))


def random_mixed_network(rng, n_nodes=5):
    nodes = tuple(f"N{i}" for i in range(n_nodes))
    edges = []
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.random() < 0.7:
            q_low = float(rng.random() * 2)
            e_up = q_low + float(rng.random() * 2)
            edges.append(Edge(nodes[i], nodes[j], Explicit(e_up, q_low),
                              q=float(rng.random() * 2)))
    return NetworkSpec(nodes=nodes, edges=tuple(edges))


def _with_q(net, q):
    """``net`` with usage weights ``q``, e.g. a q_opt fed back as fixed-q."""
    return dataclasses.replace(net, edges=tuple(
        Edge(e.tail, e.head, e.channel, q=qe)
        for e, qe in zip(net.edges, q)))


class TestBipartite:
    def test_two_segment_pure_loss_chain(self):
        report = bipartite_bounds(lossy_chain(2), "A", "B", NET)
        assert report.lower == pytest.approx(1.0)
        assert report.upper == pytest.approx(1.0)

    def test_three_segment_channel_use_optimum(self):
        report = bipartite_bounds(lossy_chain(3), "A", "B", CHAN)
        assert report.lower == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert report.upper == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert report.q_opt is not None
        assert np.allclose(report.q_opt, 1.0 / 3.0, atol=1e-9)
        assert sum(report.q_opt) == pytest.approx(1.0, abs=1e-9)

    def test_disconnected_parties(self):
        net = NetworkSpec(nodes=("A", "B", "C"),
                          edges=(Edge("A", "C", Lossy(0.5)),))
        report = bipartite_bounds(net, "A", "B", NET)
        assert report.lower == 0.0
        assert report.upper == 0.0

    def test_pure_loss_equality_various_chains(self):
        for segments in (1, 2, 4):
            for eta in (0.25, 0.5, 0.8):
                report = bipartite_bounds(lossy_chain(segments, eta),
                                          "A", "B", NET)
                assert report.lower == pytest.approx(report.upper, abs=1e-7)

    def test_network_use_dominates_fractional_fixed_q(self):
        net = lossy_chain(2, q=0.5)
        fixed = bipartite_bounds(net, "A", "B", FIXED)
        network = bipartite_bounds(net, "A", "B", NET)
        assert network.lower >= fixed.lower - 1e-9
        assert network.upper >= fixed.upper - 1e-9

    def test_q_opt_plugs_back_as_fixed(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            net = random_mixed_network(rng)
            report = bipartite_bounds(net, "N0", "N4", CHAN)
            if report.q_opt is None:
                continue
            fixed = bipartite_bounds(_with_q(net, report.q_opt), "N0",
                                     "N4", FIXED)
            assert fixed.lower == pytest.approx(report.lower, abs=1e-7)

    def test_lossless_channel_infinite_bound(self):
        net = NetworkSpec(nodes=("A", "B"),
                          edges=(Edge("A", "B", Lossy(1.0)),))
        report = bipartite_bounds(net, "A", "B", NET)
        assert math.isinf(report.upper)
        assert math.isinf(report.lower)

    def test_esq_upper_loosens(self):
        net = lossy_chain(2)
        base = bipartite_bounds(net, "A", "B", NET)
        esq = bipartite_bounds(net, "A", "B", NET, esq_lossy_upper=True)
        assert esq.upper >= base.upper
        assert esq.lower == pytest.approx(base.lower)
        assert esq.upper == pytest.approx(math.log2(3.0))

    def test_validation(self):
        net = lossy_chain(2)
        with pytest.raises(ValueError):
            bipartite_bounds(net, "A", "A", NET)
        with pytest.raises(ValueError):
            bipartite_bounds(net, "A", "Z", NET)


class TestMultipair:
    PATH = explicit_net(
        "ABC", [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0)])

    def test_single_pair_agrees_with_bipartite(self):
        for unit in (NET, CHAN):
            multi = multipair_bounds(self.PATH, [("A", "C")], "total", unit)
            bi = bipartite_bounds(self.PATH, "A", "C", unit)
            assert multi.lower == pytest.approx(bi.lower, abs=1e-9)
            assert multi.upper == pytest.approx(bi.upper, abs=1e-9)

    def test_disjoint_pairs_total(self):
        report = multipair_bounds(self.PATH, [("A", "B"), ("B", "C")],
                                  "total", NET)
        assert report.lower == pytest.approx(2.0)
        assert report.upper == pytest.approx(2.0)

    def test_shared_endpoint_worst(self):
        report = multipair_bounds(self.PATH, [("A", "C"), ("A", "B")],
                                  "worst", NET)
        assert report.lower == pytest.approx(0.5)
        assert report.upper == pytest.approx(0.5)

    def test_slack_annotation(self):
        total = multipair_bounds(self.PATH, [("A", "B"), ("B", "C")],
                                 "total", NET)
        worst = multipair_bounds(self.PATH, [("A", "B"), ("B", "C")],
                                 "worst", NET)
        assert "g1(k)" in total.slack_note
        assert "g2(k)" in worst.slack_note
        assert "O(log k)" in total.slack_note

    @pytest.mark.parametrize("objective", list(FlowObjective))
    def test_objective_enum_or_string(self, objective):
        pairs = [("A", "B"), ("B", "C")]
        by_member = multipair_bounds(self.PATH, pairs, objective, CHAN)
        by_string = multipair_bounds(self.PATH, pairs, objective.value, CHAN)
        assert by_member == by_string

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            multipair_bounds(self.PATH, [("A", "C")], "best", NET)

    def test_numeric_slack_factor(self):
        base = multipair_bounds(self.PATH, [("A", "C")], "total", NET)
        widened = multipair_bounds(self.PATH, [("A", "C")], "total", NET,
                                   slack_factor=1.5)
        assert widened.upper == pytest.approx(1.5 * base.upper)
        with pytest.raises(ValueError):
            multipair_bounds(self.PATH, [("A", "C")], "total", NET,
                             slack_factor=0.5)

    def test_joint_q_lp_matches_brute_force_scan(self):
        # Two-segment path, worst objective over two pairs sharing the
        # middle node; scan the usage split q = (q1, 1 - q1) directly and
        # solve the fixed-q flow problem at each point.  The single joint
        # LP must attain the scan's maximum.
        from qnd.flows import multicommodity_flow
        from qnd.netmodel import WeightedUGraph

        net = explicit_net("ABC", [("A", "B", 2.0, 2.0),
                                   ("B", "C", 1.0, 1.0)])
        pairs = [("A", "B"), ("B", "C")]
        report = multipair_bounds(net, pairs, "worst", CHAN)

        best = 0.0
        for q1 in np.linspace(0.0, 1.0, 1001):
            graph = WeightedUGraph(
                vertices=("A", "B", "C"),
                uedges=(("A", "B", 2.0 * q1), ("B", "C", 1.0 * (1 - q1))))
            value, _ = multicommodity_flow(graph, pairs, "worst")
            best = max(best, value)
        assert report.lower == pytest.approx(best, abs=1e-3)
        # analytic optimum: 2 q1 = 1 - q1 at q1 = 1/3, worst flow 2/3
        assert report.lower == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_q_opt_clamps_solver_noise(self):
        # The LP put -1.39e-17 on the first edge of this program; shortest
        # paths put all usage on the last edge.  No frequency is negative,
        # and on this network with explicit and lossless channels the
        # q_opt still refits.
        path = Path(__file__).resolve().parent / "golden" / "net_mixed.json"
        net = parse_network(path.read_text())
        report = multipair_bounds(net, net.commodities, "total", CHAN)
        assert report.q_opt == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        assert min(report.q_opt) >= 0.0
        refit = multipair_bounds(_with_q(net, report.q_opt),
                                 net.commodities, "total", FIXED)
        assert refit.lower == pytest.approx(report.lower, abs=1e-9)

    def test_sandwich_on_random_networks(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            net = random_mixed_network(rng)
            pairs = [("N0", "N2"), ("N1", "N3")]
            for objective in ("total", "worst"):
                report = multipair_bounds(net, pairs, objective, NET)
                assert report.lower <= report.upper + 1e-9


class TestMultipartite:
    TRIANGLE = explicit_net(
        "ABC",
        [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("A", "C", 1.0, 1.0)],
        users=("A", "B", "C"))
    STAR = explicit_net(
        "XABC",
        [("X", "A", 1.0, 1.0), ("X", "B", 1.0, 1.0), ("X", "C", 1.0, 1.0)],
        users=("A", "B", "C"))

    def test_triangle(self):
        report = multipartite_bounds(self.TRIANGLE, unit=NET)
        assert report.upper == pytest.approx(2.0)
        assert report.lower == pytest.approx(1.0)

    def test_star_leaves(self):
        report = multipartite_bounds(self.STAR, unit=NET)
        assert report.upper == pytest.approx(1.0)
        assert report.lower == pytest.approx(0.5)

    def test_two_users_reduces_to_bipartite_with_half_lower(self):
        net = explicit_net("AB", [("A", "B", 2.0, 1.0)], users=("A", "B"))
        multi = multipartite_bounds(net, unit=NET)
        bi = bipartite_bounds(net, "A", "B", NET)
        assert multi.upper == pytest.approx(bi.upper)
        assert multi.lower == pytest.approx(bi.lower / 2.0)

    def test_triangle_channel_use(self):
        # Symmetry splits the budget evenly; each pairwise flow is then
        # 1/3 direct plus 1/3 through the third vertex.
        report = multipartite_bounds(self.TRIANGLE,
                                     unit=UsageUnit.PER_CHANNEL_USE)
        assert report.upper == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert report.lower == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert sum(report.q_opt) == pytest.approx(1.0, abs=1e-9)

    def test_explicit_user_argument(self):
        report = multipartite_bounds(self.STAR, users=("A", "B"), unit=NET)
        assert report.upper == pytest.approx(1.0)

    @pytest.mark.parametrize("declared, given", [
        (None, None), ((), None), (("A",), None), (("A", "B"), ("B",))])
    def test_requires_user_set(self, declared, given):
        net = explicit_net("AB", [("A", "B", 1.0, 1.0)], users=declared)
        with pytest.raises(NetworkValidationError):
            multipartite_bounds(net, users=given, unit=NET)
        assert issubclass(NetworkValidationError, ValueError)

    def test_repeated_user_rejected(self):
        # A repeated user is no second party; the hub pairs would
        # otherwise depend on where the repeat stands.
        with pytest.raises(NetworkValidationError, match="repeats"):
            multipartite_bounds(self.TRIANGLE, users=("A", "B", "B"),
                                unit=NET)

    def test_q_opt_clamps_lp_noise(self):
        # The LP of this multipartite channel-use program puts -1.2e-16 on
        # the second edge; a frequency is reported as 0.0 instead.
        path = Path(__file__).resolve().parent / "golden" / "net_mixed.json"
        net = parse_network(path.read_text())
        report = multipartite_bounds(net, unit=CHAN)
        assert report.q_opt[1] == 0.0
        assert min(report.q_opt) >= 0.0

    @pytest.mark.parametrize("w", [
        1e-4,
        pytest.param(1e-5, marks=pytest.mark.xfail(
            raises=lpcore.LPNumericError, strict=True,
            reason="the tableau solver claims a negative component")),
        1e-6, 1e-8])
    def test_near_zero_explicit_weight_channel_use(self, w):
        net = NetworkSpec(
            nodes=("N0", "N1", "N2"),
            edges=(Edge("N0", "N2", Lossy(0.75)),
                   Edge("N1", "N2", Explicit(E_upper=w, Q_lower=w))))
        report = multipartite_bounds(net, users=("N0", "N1", "N2"),
                                     unit=CHAN)
        assert 0.0 < report.lower <= report.upper <= w


def _all_pairs(net, users, unit, esq):
    """The multipartite sandwich on every one of the k(k-1)/2 user pairs,
    the program the hub pairs replace: (raw lower, upper, q_opt)."""
    return capbounds._solve_sandwich(
        net, unit, list(itertools.combinations(users, 2)),
        flows.FlowObjective.WORST, esq, shared_capacity=False)


class TestHubPairs:
    """The least pairwise flow over the k-1 hub pairs equals the least over
    all k(k-1)/2 pairs (Gomory-Hu), for every usage vector q."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_all_pairs(self, data):
        n = data.draw(st.integers(2, 5), label="nodes")
        nodes = tuple(f"N{i}" for i in range(n))
        # Weights stay clear of the near-zero explicit channels on which
        # the tableau fails (test_near_zero_explicit_weight_channel_use).
        weight = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
        lossy = st.builds(Lossy, st.one_of(st.floats(0.05, 0.95),
                                           st.just(1.0)))
        explicit = st.builds(lambda q, d: Explicit(q + d, q), weight, weight)
        edges = []
        for i, j in itertools.combinations(range(n), 2):
            if data.draw(st.booleans()):
                ends = (nodes[i], nodes[j])
                if data.draw(st.booleans()):
                    ends = ends[::-1]
                edges.append(Edge(*ends, data.draw(st.one_of(lossy,
                                                             explicit)),
                                  q=data.draw(st.floats(0.05, 2.0))))
        net = NetworkSpec(nodes=nodes, edges=tuple(edges))
        users = data.draw(st.permutations(nodes), label="users")
        users = users[:data.draw(st.integers(2, n), label="k")]
        unit = data.draw(st.sampled_from(UsageUnit), label="unit")
        esq = data.draw(st.booleans(), label="esq")

        report = multipartite_bounds(net, users=users, unit=unit,
                                     esq_lossy_upper=esq)
        lower, upper, _ = _all_pairs(net, users, unit, esq)
        assert report.lower == pytest.approx(0.5 * lower, rel=1e-9,
                                             abs=1e-12)
        assert report.upper == pytest.approx(upper, rel=1e-9, abs=1e-12)
        # Under channel-use a lossless channel is unbounded at any q, but
        # fixed-q weights it 0 at q = 0, so its q_opt does not refit.
        lossless = any(e.channel == Lossy(1.0) for e in edges)
        if unit is CHAN and report.q_opt is not None and not lossless:
            refit, _, _ = _all_pairs(_with_q(net, report.q_opt), users,
                                     FIXED, esq)
            assert refit == pytest.approx(lower, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("unit", list(UsageUnit))
    def test_hub_choice_moves_no_bound(self, unit):
        net = lossy_grid(np.random.default_rng(5), 3)
        corners = ("r0c0", "r0c2", "r2c2", "r2c0")
        reports = [multipartite_bounds(net, users=corners[i:] + corners[:i],
                                       unit=unit)
                   for i in range(len(corners))]
        for report in reports[1:]:
            assert report.lower == pytest.approx(reports[0].lower,
                                                 rel=1e-12)
            assert report.upper == pytest.approx(reports[0].upper,
                                                 rel=1e-12)


class TestVerification:
    # An asymmetric pair of explicit channels and a lossless channel.
    NET = NetworkSpec(
        nodes=("A", "B", "C", "D"),
        edges=(Edge("A", "B", Lossy(0.6), q=0.5),
               Edge("B", "C", Explicit(1.5, 0.8)),
               Edge("C", "B", Explicit(0.7, 0.3), q=0.5),
               Edge("C", "D", Lossy(1.0)),
               Edge("A", "D", Lossy(0.3)),
               Edge("B", "D", Lossy(0.5), q=2.0)),
        users=("A", "B", "C", "D"))

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        verify = FlowAssignment.verify

        def spy(assignment, graph, shared_capacity=True):
            calls.append((graph, shared_capacity))
            return verify(assignment, graph, shared_capacity)

        monkeypatch.setattr(FlowAssignment, "verify", spy)
        return calls

    @pytest.mark.parametrize("unit", list(UsageUnit))
    def test_every_program_is_verified(self, checks, unit):
        bipartite_bounds(self.NET, "A", "C", unit)
        multipair_bounds(self.NET, [("A", "C"), ("B", "D")], "total", unit)
        multipair_bounds(self.NET, [("A", "C"), ("B", "D")], "worst", unit)
        multipartite_bounds(self.NET, unit=unit)
        shared = [flag for _, flag in checks]
        assert shared == [True] * 6 + [False] * 2

    @pytest.mark.parametrize("unit", list(UsageUnit))
    def test_identical_sides_verified_once(self, checks, unit):
        # Pure loss: the lower and the upper program are one program.
        net = lossy_grid(np.random.default_rng(2), 3)
        bipartite_bounds(net, "r0c0", "r2c2", unit)
        multipair_bounds(net, net.commodities, "total", unit)
        multipair_bounds(net, net.commodities, "worst", unit)
        multipartite_bounds(net, unit=unit)
        assert [flag for _, flag in checks] == [True] * 3 + [False]

    @pytest.mark.parametrize("unit", list(UsageUnit))
    def test_squashed_upper_solves_both_sides(self, checks, unit):
        net = lossy_grid(np.random.default_rng(2), 3)
        bipartite_bounds(net, "r0c0", "r2c2", unit, esq_lossy_upper=True)
        multipartite_bounds(net, unit=unit, esq_lossy_upper=True)
        assert [flag for _, flag in checks] == [True] * 2 + [False] * 2

    def test_channel_use_checked_against_q_opt(self, checks):
        report = bipartite_bounds(self.NET, "A", "C", CHAN)
        graph = checks[0][0]  # the lower-bound program
        expected = {}
        for e, q in zip(self.NET.edges, report.q_opt):
            key = tuple(sorted((e.tail, e.head)))
            value = channel_value(e.channel, Measure.LOWER_CAPACITY)
            expected[key] = expected.get(key, 0.0) + (
                math.inf if math.isinf(value) else q * value)
        weights = {(u, v): w for u, v, w in graph.uedges}
        assert weights == pytest.approx(expected, abs=1e-12)
        assert math.isinf(weights["C", "D"])


def _two_solve_sandwich(net, unit, pairs, objective, esq_lossy_upper,
                        shared_capacity=True):
    """Reference for ``capbounds._solve_sandwich``: build and solve the
    lower and the upper program separately, whether or not they agree."""
    if unit is NET:
        net = dataclasses.replace(net, edges=tuple(
            Edge(e.tail, e.head, e.channel, 1.0) for e in net.edges))
    upper = (Measure.UPPER_SQUASHED if esq_lossy_upper
             else Measure.UPPER_ENTANGLEMENT)
    results = []
    for measure in (Measure.LOWER_CAPACITY, upper):
        graph = undirect(net, measure)
        usage_terms = None
        if unit is CHAN:
            index = {(u, v): j for j, (u, v, _) in enumerate(graph.uedges)}
            usage_terms = [[] for _ in graph.uedges]
            for q_idx, e in enumerate(net.edges):
                usage_terms[index[tuple(sorted((e.tail, e.head)))]].append(
                    (q_idx, channel_value(e.channel, measure)))
        value, _, q = flows._solve_flow(graph, pairs, objective, usage_terms,
                                        shared_capacity)
        results.append((value, q))
    (lower, q_opt), (upper, _) = results
    return lower, upper, q_opt


def _reports(net, unit, esq):
    """The report of every task, or the solver error it raised: the
    tableau can fail numerically on near-zero explicit weights under
    channel-use, and both paths must then fail alike."""
    pair = net.commodities[0]
    tasks = [
        lambda: bipartite_bounds(net, *pair, unit, esq_lossy_upper=esq),
        lambda: multipair_bounds(net, net.commodities, "total", unit,
                                 esq_lossy_upper=esq),
        lambda: multipair_bounds(net, net.commodities, "worst", unit,
                                 slack_factor=1.5, esq_lossy_upper=esq),
        lambda: multipartite_bounds(net, unit=unit, esq_lossy_upper=esq)]
    out = []
    for task in tasks:
        try:
            out.append(task())
        except lpcore.LPNumericError as exc:
            out.append(repr(exc))
    return out


def _assert_same_as_two_solves(net, unit, esq=False):
    reports = _reports(net, unit, esq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capbounds, "_solve_sandwich", _two_solve_sandwich)
        references = _reports(net, unit, esq)
    for report, ref in zip(reports, references):
        if isinstance(ref, BoundReport):
            for field in dataclasses.fields(BoundReport):
                assert getattr(report, field.name) == getattr(ref,
                                                              field.name)
        assert repr(report) == repr(ref)  # signed zeros and all digits


class TestOneSolveSandwich:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("unit", list(UsageUnit))
    def test_pure_loss_grid_matches_two_solves(self, seed, unit):
        _assert_same_as_two_solves(
            lossy_grid(np.random.default_rng(seed), 3 + seed % 2), unit)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mixed_network_matches_two_solves(self, data):
        n = data.draw(st.integers(3, 5), label="nodes")
        nodes = tuple(f"N{i}" for i in range(n))
        lossy = st.builds(Lossy, st.one_of(st.floats(0.0, 0.95),
                                           st.just(1.0)))
        explicit = st.builds(
            lambda q, d: Explicit(q + d, q), st.floats(0.0, 2.0),
            st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
        edges = []
        for i, j in itertools.combinations(range(n), 2):
            if data.draw(st.booleans()):
                ends = (nodes[i], nodes[j])
                if data.draw(st.booleans()):
                    ends = ends[::-1]
                edges.append(Edge(*ends, data.draw(st.one_of(lossy,
                                                             explicit)),
                                  q=data.draw(st.floats(0.0, 2.0))))
        net = NetworkSpec(nodes=nodes, edges=tuple(edges),
                          commodities=((nodes[0], nodes[-1]),
                                       (nodes[1], nodes[2])),
                          users=nodes[:3])
        _assert_same_as_two_solves(net, data.draw(st.sampled_from(UsageUnit)),
                                   data.draw(st.booleans()))


def _lp_only(task):
    """``task()`` with every flow program solved as an LP by
    :mod:`qnd.lpcore`: the reference of the combinatorial solvers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_solver", lambda *_: flows._lp_flows)
        return task()


class TestCombinatorialSolvers:
    """Max-flow and shortest paths give the bounds the LP gives."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_match_lp(self, data):
        n = data.draw(st.integers(2, 5), label="nodes")
        nodes = tuple(f"N{i}" for i in range(n))
        # Weights stay clear of the near-zero explicit channels on which
        # the tableau fails (test_near_zero_explicit_weight_channel_use).
        weight = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
        lossy = st.builds(Lossy, st.one_of(st.floats(0.05, 0.95),
                                           st.sampled_from([0.0, 1.0])))
        pure_loss = data.draw(st.booleans(), label="pure loss")
        channel = lossy if pure_loss else st.one_of(
            lossy, st.builds(lambda q, d: Explicit(q + d, q), weight, weight))
        edges = []
        for i, j in itertools.combinations(range(n), 2):
            for _ in range(data.draw(st.integers(0, 2))):
                ends = (nodes[i], nodes[j])
                if data.draw(st.booleans()):
                    ends = ends[::-1]
                edges.append(Edge(*ends, data.draw(channel), q=data.draw(
                    st.one_of(st.just(0.0), st.floats(0.05, 2.0)))))
        net = NetworkSpec(nodes=nodes, edges=tuple(edges),
                          commodities=((nodes[0], nodes[-1]),
                                       (nodes[-1], nodes[(n - 1) // 2])),
                          users=nodes)
        unit = data.draw(st.sampled_from(UsageUnit), label="unit")
        esq = data.draw(st.booleans(), label="esq")
        tasks = {
            "bipartite": lambda net, unit: bipartite_bounds(
                net, *net.commodities[0], unit, esq_lossy_upper=esq),
            "total": lambda net, unit: multipair_bounds(
                net, net.commodities, "total", unit, esq_lossy_upper=esq),
            "worst": lambda net, unit: multipair_bounds(
                net, net.commodities, "worst", unit, esq_lossy_upper=esq),
            "multipartite": lambda net, unit: multipartite_bounds(
                net, unit=unit, esq_lossy_upper=esq),
        }
        # A lossless channel is unbounded under channel-use at any q, but
        # fixed-q weights it 0 at q = 0, so its q_opt does not refit.
        refits = pure_loss and not any(e.channel == Lossy(1.0)
                                       for e in edges)
        for name, task in tasks.items():
            report = task(net, unit)
            ref = _lp_only(lambda: task(net, unit))
            for side in ("lower", "upper"):
                assert getattr(report, side) == pytest.approx(
                    getattr(ref, side), rel=1e-12, abs=1e-15), (name, side)
            assert (report.q_opt is None) == (ref.q_opt is None)
            if report.q_opt is not None and refits:
                refit = task(_with_q(net, report.q_opt), FIXED)
                assert refit.lower == pytest.approx(report.lower, rel=1e-12,
                                                    abs=1e-15), name
