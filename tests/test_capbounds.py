import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd import capbounds, flows, lpcore
from qnd.capbounds import (BoundReport, TreePackingConstants, UsageUnit,
                           bipartite_bounds, multipair_bounds,
                           multipartite_bounds)
from qnd.flows import FlowAssignment
from qnd.netmodel import (Edge, Explicit, Lossy, Measure, NetworkSpec,
                          NetworkValidationError, channel_value, undirect)

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
            refit = NetworkSpec(
                nodes=net.nodes,
                edges=tuple(Edge(e.tail, e.head, e.channel, q=q)
                            for e, q in zip(net.edges, report.q_opt)))
            fixed = bipartite_bounds(refit, "N0", "N4", FIXED)
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

    def test_alternative_tree_constants(self):
        lau = multipartite_bounds(
            self.TRIANGLE, unit=NET,
            tree_constants=TreePackingConstants(g3=1.0 / 26.0, g4=0.0))
        assert lau.lower == pytest.approx(2.0 / 26.0)

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

    @pytest.mark.parametrize("w", [
        1e-4,
        pytest.param(1e-5, marks=pytest.mark.xfail(
            raises=lpcore.LPNumericError, strict=True,
            reason="the tableau solver claims a negative component")),
        pytest.param(1e-6, marks=pytest.mark.xfail(
            raises=lpcore.LPNumericError, strict=True,
            reason="the tableau solver claims a negative component")),
        1e-8])
    def test_near_zero_explicit_weight_channel_use(self, w):
        net = NetworkSpec(
            nodes=("N0", "N1", "N2"),
            edges=(Edge("N0", "N2", Lossy(0.75)),
                   Edge("N1", "N2", Explicit(E_upper=w, Q_lower=w))))
        report = multipartite_bounds(net, users=("N0", "N1", "N2"),
                                     unit=CHAN)
        assert 0.0 < report.lower <= report.upper <= w


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
    results = []
    for measure, esq in ((Measure.LOWER_CAPACITY, False),
                         (Measure.UPPER_ENTANGLEMENT, esq_lossy_upper)):
        graph = undirect(net, measure, esq_lossy=esq)
        usage_terms = None
        if unit is CHAN:
            index = {(u, v): j for j, (u, v, _) in enumerate(graph.uedges)}
            usage_terms = [[] for _ in graph.uedges]
            for q_idx, e in enumerate(net.edges):
                usage_terms[index[tuple(sorted((e.tail, e.head)))]].append(
                    (q_idx, channel_value(e.channel, measure,
                                          esq_lossy=esq)))
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
