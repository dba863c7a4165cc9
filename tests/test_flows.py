import itertools
import math

import numpy as np
import pytest

from qnd import flows
from qnd.flows import (FlowAssignment, FlowObjective, FlowVerificationError,
                       SizeLimitError, max_flow,
                       min_cut_bruteforce, min_cut_ratio_bruteforce,
                       min_multicut_bruteforce, multicommodity_flow,
                       s_connectivity, steiner_packing_bruteforce)
from qnd.netmodel import WeightedUGraph


def graph(vertices, edges):
    return WeightedUGraph(vertices=tuple(vertices), uedges=tuple(edges))


PATH_ABC = graph("ABC", [("A", "B", 2.0), ("B", "C", 3.0)])
UNIT_PATH = graph("ABC", [("A", "B", 1.0), ("B", "C", 1.0)])
TRIANGLE = graph("ABC", [("A", "B", 1.0), ("B", "C", 1.0), ("A", "C", 1.0)])
STAR = graph("XAB", [("X", "A", 1.0), ("X", "B", 1.0)])


def random_graph(rng, n_vertices, p_edge=0.6, max_weight=5):
    names = [f"V{i}" for i in range(n_vertices)]
    edges = []
    for i, j in itertools.combinations(range(n_vertices), 2):
        if rng.random() < p_edge:
            w = float(rng.integers(0, max_weight + 1))
            edges.append((names[i], names[j], w))
    return graph(names, edges)


class TestMaxFlow:
    def test_path_bottleneck(self):
        value, assignment = max_flow(PATH_ABC, "A", "C")
        assert value == pytest.approx(2.0)
        assert assignment.values[0] == pytest.approx(2.0)
        # Equals the brute-force min cut.
        assert value == pytest.approx(
            min_cut_bruteforce(PATH_ABC, "A", "C").weight)

    def test_two_disjoint_paths(self):
        g = graph("ABCD", [("A", "B", 1.0), ("B", "D", 1.0),
                           ("A", "C", 1.0), ("C", "D", 1.0)])
        value, _ = max_flow(g, "A", "D")
        assert value == pytest.approx(2.0)

    def test_isolated_source(self):
        g = graph("ABC", [("B", "C", 1.0)])
        value, _ = max_flow(g, "A", "C")
        assert value == pytest.approx(0.0)

    def test_terminal_not_in_graph(self):
        with pytest.raises(ValueError):
            max_flow(PATH_ABC, "A", "Z")
        with pytest.raises(ValueError):
            max_flow(PATH_ABC, "A", "A")

    def test_infinite_edge_path(self):
        g = graph("ABC", [("A", "B", math.inf), ("B", "C", math.inf)])
        value, assignment = max_flow(g, "A", "C")
        assert value == math.inf
        assert assignment is None

    def test_assignment_reverifies(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng, 6)
            value, assignment = max_flow(g, "V0", "V5")
            if assignment is not None:
                assignment.verify(g)  # raises on violation


class TestVerify:
    OVERLOADED = FlowAssignment(edges=(("A", "B"),),
                                commodities=(("A", "B"), ("A", "B")),
                                flows=np.array([[[0.75, 0.0]], [[0.75, 0.0]]]),
                                values=(0.75, 0.75))
    EDGE = graph("AB", [("A", "B", 1.0)])

    def test_shared_and_per_commodity_capacity(self):
        with pytest.raises(FlowVerificationError, match="capacity"):
            self.OVERLOADED.verify(self.EDGE)
        self.OVERLOADED.verify(self.EDGE, shared_capacity=False)

    def test_conservation_violation(self):
        leaky = FlowAssignment(edges=(("A", "B"), ("B", "C")),
                               commodities=(("A", "C"),),
                               flows=np.array([[[1.0, 0.0], [0.5, 0.0]]]),
                               values=(1.0,))
        # The documented contract: violations raise an AssertionError.
        with pytest.raises(AssertionError, match="conservation"):
            leaky.verify(UNIT_PATH)

    def test_raises_under_python_optimize(self, run_optimized):
        script = (
            "import numpy as np\n"
            "from qnd.flows import FlowAssignment, FlowVerificationError\n"
            "from qnd.netmodel import WeightedUGraph\n"
            "assert False, 'asserts are live'  # stripped by -O\n"
            "g = WeightedUGraph(vertices=('A', 'B'),\n"
            "                   uedges=(('A', 'B', 1.0),))\n"
            "a = FlowAssignment(edges=(('A', 'B'),),\n"
            "                   commodities=(('A', 'B'),),\n"
            "                   flows=np.array([[[2.0, 0.0]]]),\n"
            "                   values=(2.0,))\n"
            "try:\n"
            "    a.verify(g)\n"
            "except FlowVerificationError:\n"
            "    print('raised')\n")
        assert run_optimized(script) == "raised"


class TestMinCutBruteforce:
    def test_path(self):
        cut = min_cut_bruteforce(PATH_ABC, "A", "C")
        assert cut.weight == pytest.approx(2.0)
        assert cut.partition == ("A",)
        assert cut.cut_edges == (("A", "B"),)

    def test_triangle_both_cuts_weight_two(self):
        cut = min_cut_bruteforce(TRIANGLE, "A", "B")
        assert cut.weight == pytest.approx(2.0)

    def test_disconnected_terminals(self):
        g = graph("AB", [])
        cut = min_cut_bruteforce(g, "A", "B")
        assert cut.weight == 0.0
        assert cut.cut_edges == ()

    def test_tie_break_lexicographic(self):
        # Symmetric 4-cycle: several minimum cuts; smallest sorted subset
        # wins.
        g = graph("ABCD", [("A", "B", 1.0), ("B", "C", 1.0),
                           ("C", "D", 1.0), ("D", "A", 1.0)])
        cut = min_cut_bruteforce(g, "A", "C")
        assert cut.weight == pytest.approx(2.0)
        assert cut.partition == ("A",)

    def test_size_limit(self):
        names = [f"V{i}" for i in range(30)]
        g = graph(names, [])
        with pytest.raises(SizeLimitError):
            min_cut_bruteforce(g, "V0", "V1")


def with_special_weights(rng, g, p_special=0.3):
    """``g`` with some weights replaced by 0 or infinity."""
    return graph(g.vertices, [
        (u, v, float(rng.choice([0.0, math.inf]))
         if rng.random() < p_special else w)
        for u, v, w in g.uedges])


def lp_flow(graph, commodities, objective, usage_terms=None,
            shared_capacity=True):
    """``flows._solve_flow`` with the program solved as an LP by
    :mod:`qnd.lpcore`: the reference of the combinatorial solvers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_solver", lambda *_: flows._lp_flows)
        return flows._solve_flow(graph, commodities, objective, usage_terms,
                                 shared_capacity)


def zwick_network(m=3.0):
    """The irrational-capacity network of the Ford-Fulkerson
    non-termination example (Zwick, "The smallest networks on which the
    Ford-Fulkerson maximum flow procedure may fail to terminate", Theor.
    Comput. Sci. 1995), with undirected edges: inner edges a-b, b-c, c-d of
    capacities 1, r = (sqrt(5) - 1) / 2 and 1, and capacity ``m``
    elsewhere.  Its minimum cut, around {s, a, b}, weighs 2m + r."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    return graph("sabcdt", [
        ("s", "a", m), ("s", "b", m), ("s", "d", m),
        ("a", "t", m), ("c", "t", m), ("d", "t", m),
        ("a", "b", 1.0), ("b", "c", r), ("c", "d", 1.0)])


class TestMaxFlowMinCutTheorem:
    @pytest.mark.parametrize("special", [False, True],
                             ids=["finite", "zero_and_infinite"])
    def test_random_graphs(self, special):
        rng = np.random.default_rng(2024)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            g = random_graph(rng, n)
            if special:
                g = with_special_weights(rng, g)
            names = list(g.vertices)
            s, t = rng.choice(len(names), size=2, replace=False)
            flow, assignment = max_flow(g, names[s], names[t])
            cut = min_cut_bruteforce(g, names[s], names[t])
            if math.isinf(cut.weight):
                assert flow == math.inf and assignment is None
            else:
                assert flow == pytest.approx(cut.weight, abs=1e-7)
                assert flow == pytest.approx(
                    lp_flow(g, [(names[s], names[t])], "total")[0],
                    rel=1e-12, abs=1e-12)

    def test_irrational_capacities_terminate(self):
        g = zwick_network()
        flow, assignment = max_flow(g, "s", "t")
        assert flow == pytest.approx(min_cut_bruteforce(g, "s", "t").weight,
                                     rel=1e-15)
        assert flow == pytest.approx(6.0 + (math.sqrt(5.0) - 1.0) / 2.0,
                                     rel=1e-15)
        assignment.verify(g)


class TestPrivateCopies:
    """Commodities with private capacity copies are independent max-flows."""

    # A-B is lossless, A-C has capacity 2 and A-D none.
    NET = graph("ABCD", [("A", "B", math.inf), ("A", "C", 2.0)])

    def test_worst_is_least_finite_pair(self):
        pairs = [("A", "B"), ("A", "C")]
        value, assignment, _ = flows._solve_flow(
            self.NET, pairs, "worst", shared_capacity=False)
        assert value == 2.0
        assert assignment.values == (2.0, 2.0)
        assignment.verify(self.NET, shared_capacity=False)
        assert lp_flow(self.NET, pairs, "worst",
                       shared_capacity=False)[0] == pytest.approx(2.0)

    def test_unbounded_only_when_every_pair_is(self):
        for pairs, objective in (([("A", "B"), ("B", "A")], "worst"),
                                 ([("A", "B"), ("A", "C")], "total")):
            assert flows._solve_flow(self.NET, pairs, objective,
                                     shared_capacity=False) == (
                math.inf, None, None)
            assert lp_flow(self.NET, pairs, objective,
                           shared_capacity=False)[0] == math.inf

    def test_worst_with_a_disconnected_pair_is_zero(self):
        value, assignment, _ = flows._solve_flow(
            self.NET, [("A", "B"), ("A", "D")], "worst",
            shared_capacity=False)
        assert value == 0.0
        assert assignment.values == (0.0, 0.0)


class TestMulticommodity:
    def test_disjoint_demands_total(self):
        value, _ = multicommodity_flow(
            UNIT_PATH, [("A", "B"), ("B", "C")], FlowObjective.TOTAL)
        assert value == pytest.approx(2.0)

    def test_shared_edge_worst_case(self):
        value, _ = multicommodity_flow(
            UNIT_PATH, [("A", "C"), ("A", "B")], FlowObjective.WORST)
        assert value == pytest.approx(0.5)

    def test_single_commodity_reduces_to_max_flow(self):
        for objective in FlowObjective:
            value, _ = multicommodity_flow(PATH_ABC, [("A", "C")], objective)
            flow, _ = max_flow(PATH_ABC, "A", "C")
            assert value == pytest.approx(flow, abs=1e-9)

    def test_total_at_least_k_times_worst(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            g = random_graph(rng, 6)
            names = list(g.vertices)
            pairs = []
            for _ in range(3):
                i, j = rng.choice(len(names), size=2, replace=False)
                pairs.append((names[i], names[j]))
            total, _ = multicommodity_flow(g, pairs, FlowObjective.TOTAL)
            worst, _ = multicommodity_flow(g, pairs, FlowObjective.WORST)
            assert total >= len(pairs) * worst - 1e-7

    def test_shared_capacity_binds(self):
        # Two commodities over one unit edge can move one unit in total.
        g = graph("AB", [("A", "B", 1.0)])
        total, _ = multicommodity_flow(
            g, [("A", "B"), ("B", "A")], FlowObjective.TOTAL)
        assert total == pytest.approx(1.0)


class TestMinMulticut:
    def test_path_two_demands(self):
        value, edges = min_multicut_bruteforce(
            UNIT_PATH, [("A", "B"), ("B", "C")])
        assert value == pytest.approx(2.0)
        assert set(edges) == {("A", "B"), ("B", "C")}

    def test_single_commodity_equals_min_cut(self):
        value, _ = min_multicut_bruteforce(PATH_ABC, [("A", "C")])
        assert value == pytest.approx(
            min_cut_bruteforce(PATH_ABC, "A", "C").weight)

    def test_already_disconnected(self):
        g = graph("ABCD", [("A", "B", 1.0)])
        value, edges = min_multicut_bruteforce(g, [("C", "D")])
        assert value == 0.0
        assert edges == ()

    def test_upper_bounds_total_flow(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            g = random_graph(rng, 5, p_edge=0.7, max_weight=3)
            names = list(g.vertices)
            pairs = []
            for _ in range(2):
                i, j = rng.choice(len(names), size=2, replace=False)
                pairs.append((names[i], names[j]))
            total, _ = multicommodity_flow(g, pairs, FlowObjective.TOTAL)
            cut, _ = min_multicut_bruteforce(g, pairs)
            assert total <= cut + 1e-7

    def test_size_limit(self):
        names = [f"V{i}" for i in range(10)]
        edges = [(a, b, 1.0) for a, b in itertools.combinations(names, 2)]
        g = graph(names, edges)
        with pytest.raises(SizeLimitError):
            min_multicut_bruteforce(g, [("V0", "V1")])

    def test_failed_verification_raises_under_python_optimize(
            self, run_optimized):
        # A connectivity check that reports every pair still connected
        # must fail the re-verification even with asserts stripped.
        script = (
            "from qnd import flows\n"
            "from qnd.netmodel import WeightedUGraph\n"
            "assert False, 'asserts are live'  # stripped by -O\n"
            "flows._components = lambda vertices, edges: "
            "{v: 0 for v in vertices}\n"
            "g = WeightedUGraph(vertices=('A', 'B', 'C'),\n"
            "                   uedges=(('A', 'B', 1.0), ('B', 'C', 1.0)))\n"
            "try:\n"
            "    flows.min_multicut_bruteforce(g, [('A', 'C')])\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
        assert run_optimized(script) == "multicut verification failed"


class TestCutRatio:
    def test_path_single_pair(self):
        value, _ = min_cut_ratio_bruteforce(UNIT_PATH, [("A", "C")])
        assert value == pytest.approx(1.0)

    def test_star_two_pairs(self):
        value, _ = min_cut_ratio_bruteforce(STAR, [("A", "X"), ("B", "X")])
        assert value == pytest.approx(1.0)

    def test_disconnected_pair_gives_zero(self):
        g = graph("ABC", [("B", "C", 1.0)])
        value, _ = min_cut_ratio_bruteforce(g, [("A", "B")])
        assert value == 0.0

    def test_upper_bounds_worst_flow(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            g = random_graph(rng, 5, p_edge=0.7, max_weight=3)
            names = list(g.vertices)
            pairs = []
            for _ in range(3):
                i, j = rng.choice(len(names), size=2, replace=False)
                pairs.append((names[i], names[j]))
            worst, _ = multicommodity_flow(g, pairs, FlowObjective.WORST)
            ratio, _ = min_cut_ratio_bruteforce(g, pairs)
            assert worst <= ratio + 1e-7


class TestSConnectivity:
    def test_two_terminals_is_max_flow(self):
        assert s_connectivity(PATH_ABC, ["A", "C"]) == pytest.approx(
            max_flow(PATH_ABC, "A", "C")[0])

    def test_triangle_all_vertices(self):
        assert s_connectivity(TRIANGLE, list("ABC")) == pytest.approx(2.0)

    def test_star_leaves(self):
        assert s_connectivity(STAR, ["A", "B"]) == pytest.approx(1.0)

    def test_needs_two_terminals(self):
        with pytest.raises(ValueError):
            s_connectivity(TRIANGLE, ["A"])

    @pytest.mark.parametrize("terminals", [["A", "Z"], ["A", "B", "A"],
                                           ["A", "A"]])
    def test_unknown_or_repeated_terminal(self, terminals):
        with pytest.raises(ValueError):
            s_connectivity(TRIANGLE, terminals)

    def test_hub_pairs_give_the_least_pairwise_flow(self):
        # Gomory-Hu: the k - 1 flows from one terminal hold the least of
        # all k (k - 1) / 2, also with zero and infinite weights.
        rng = np.random.default_rng(23)
        for _ in range(40):
            n_v = int(rng.integers(3, 8))
            names = [f"V{i}" for i in range(n_v)]
            edges = [(a, b, float(rng.choice([0.0, math.inf, 1.0, 2.5,
                                               rng.uniform(0.1, 3.0)])))
                     for a, b in itertools.combinations(names, 2)
                     if rng.random() < 0.6]
            g = graph(names, edges)
            terminals = list(rng.permutation(names)[:int(rng.integers(2,
                                                                      5))])
            least = min(max_flow(g, a, b)[0]
                        for a, b in itertools.combinations(terminals, 2))
            assert s_connectivity(g, terminals) == pytest.approx(least,
                                                                 rel=1e-12)


class TestSteinerPacking:
    def test_two_parallel_edges(self):
        g = graph("AB", [("A", "B", 2.0)])
        assert steiner_packing_bruteforce(g, ["A", "B"]) == 2

    def test_triangle_spanning_trees(self):
        assert steiner_packing_bruteforce(TRIANGLE, list("ABC")) == 1

    def test_path_endpoints(self):
        assert steiner_packing_bruteforce(UNIT_PATH, ["A", "C"]) == 1

    def test_bounded_by_s_connectivity(self):
        rng = np.random.default_rng(17)
        observed_lower_half = []
        for _ in range(6):
            g = random_graph(rng, 4, p_edge=0.8, max_weight=2)
            if sum(int(w) for _, _, w in g.uedges) > 10:
                continue
            terminals = list(g.vertices)[:3]
            count = steiner_packing_bruteforce(g, terminals)
            lam = s_connectivity(g, terminals)
            assert count <= lam + 1e-9  # connectivity caps tree packing
            # The floor(lambda / 2) lower side is a conjecture; record the
            # observation at toy scale without making it a hard invariant.
            observed_lower_half.append(count >= math.floor(lam / 2))
        print("lower-half observations:", observed_lower_half)

    def test_non_integer_weights_rejected(self):
        g = graph("AB", [("A", "B", 1.5)])
        with pytest.raises(ValueError):
            steiner_packing_bruteforce(g, ["A", "B"])

    def test_size_limit(self):
        g = graph("AB", [("A", "B", 13.0)])
        with pytest.raises(SizeLimitError):
            steiner_packing_bruteforce(g, ["A", "B"])
