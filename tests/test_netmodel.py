import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd.netmodel import (Edge, Explicit, Lossy, Measure, NetworkParseError,
                          NetworkSpec, NetworkValidationError, WeightedUGraph,
                          channel_value, esq_lossy_bound, parse_network,
                          serialize_network, undirect)

UP = Measure.UPPER_ENTANGLEMENT
LO = Measure.LOWER_CAPACITY


def weights(graph):
    """The undirected edge weights of ``graph`` by node pair."""
    return {(u, v): w for u, v, w in graph.uedges}


class TestChannelValue:
    def test_lossy_half_is_one_ebit(self):
        assert channel_value(Lossy(0.5), UP) == pytest.approx(1.0)
        assert channel_value(Lossy(0.5), LO) == pytest.approx(1.0)

    def test_fully_lossy_carries_nothing(self):
        assert channel_value(Lossy(0.0), UP) == 0.0
        assert channel_value(Lossy(0.0), LO) == 0.0

    def test_explicit_pass_through(self):
        ch = Explicit(E_upper=2.5, Q_lower=1.0)
        assert channel_value(ch, LO) == 1.0
        assert channel_value(ch, UP) == 2.5

    def test_lossless_infinity_sentinel(self):
        assert channel_value(Lossy(1.0), UP) == math.inf

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(NetworkValidationError, match="eta out of range"):
            Lossy(1.3)
        with pytest.raises(NetworkValidationError):
            Lossy(-0.1)

    def test_lower_bound_cannot_exceed_upper(self):
        with pytest.raises(NetworkValidationError):
            Explicit(E_upper=1.0, Q_lower=2.0)

    def test_monotone_in_eta(self):
        etas = np.linspace(0.0, 0.99, 50)
        values = [channel_value(Lossy(e), UP) for e in etas]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestEsqBound:
    def test_eta_zero(self):
        assert esq_lossy_bound(0.0) == 0.0

    def test_eta_half_is_log2_three(self):
        assert esq_lossy_bound(0.5) == pytest.approx(math.log2(3.0))

    def test_eta_point_six_is_two(self):
        assert esq_lossy_bound(0.6) == pytest.approx(2.0)

    def test_divergence_at_one(self):
        with pytest.raises(NetworkValidationError):
            esq_lossy_bound(1.0)

    def test_selected_only_for_lossy_upper_weights(self):
        assert channel_value(Lossy(0.5), UP, esq_lossy=True) == \
            esq_lossy_bound(0.5)
        assert channel_value(Lossy(1.0), UP, esq_lossy=True) == math.inf
        assert channel_value(Lossy(0.5), LO, esq_lossy=True) == \
            channel_value(Lossy(0.5), LO)
        ch = Explicit(E_upper=2.5, Q_lower=1.0)
        assert channel_value(ch, UP, esq_lossy=True) == 2.5

    def test_looser_than_default_upper(self):
        for eta in np.linspace(0.05, 0.95, 19):
            assert esq_lossy_bound(eta) >= channel_value(Lossy(eta), UP)


class TestUndirect:
    def test_single_direction(self):
        net = NetworkSpec(nodes=("A", "B"),
                          edges=(Edge("A", "B", Lossy(0.5)),))
        g = undirect(net, UP)
        assert g.uedges == (("A", "B", 1.0),)

    def test_antiparallel_edges_merge(self):
        net = NetworkSpec(
            nodes=("A", "B"),
            edges=(Edge("A", "B", Explicit(2.0, 1.0), q=0.5),
                   Edge("B", "A", Explicit(4.0, 3.0), q=0.5)))
        g = undirect(net, UP)
        assert g.uedges == (("A", "B", pytest.approx(3.0)),)
        g_low = undirect(net, LO)
        assert weights(g_low)["A", "B"] == pytest.approx(2.0)

    def test_absent_pair_has_no_edge(self):
        net = NetworkSpec(nodes=("A", "B", "C", "D"),
                          edges=(Edge("A", "B", Lossy(0.5)),))
        g = undirect(net, UP)
        assert ("C", "D") not in weights(g)
        assert len(g.uedges) == 1

    def test_zero_weight_edges_retained(self):
        net = NetworkSpec(nodes=("A", "B"),
                          edges=(Edge("A", "B", Lossy(0.0)),))
        g = undirect(net, UP)
        assert g.uedges == (("A", "B", 0.0),)

    def test_weight_is_sum_of_directed_contributions(self):
        rng = np.random.default_rng(7)
        nodes = tuple("ABCD")
        edges = []
        for _ in range(10):
            tail, head = rng.choice(4, size=2, replace=False)
            edges.append(Edge(nodes[tail], nodes[head],
                              Explicit(2.0, 1.0), q=float(rng.random())))
        net = NetworkSpec(nodes=nodes, edges=tuple(edges))
        g = undirect(net, UP)
        for u, v, w in g.uedges:
            expected = sum(e.q * 2.0 for e in edges
                           if {e.tail, e.head} == {u, v})
            assert w == pytest.approx(expected)

    def test_esq_weighting_for_lossy(self):
        net = NetworkSpec(nodes=("A", "B"),
                          edges=(Edge("A", "B", Lossy(0.5)),))
        g = undirect(net, UP, esq_lossy=True)
        assert weights(g)["A", "B"] == pytest.approx(math.log2(3.0))


class TestValidation:
    def test_edge_endpoint_must_be_declared(self):
        with pytest.raises(NetworkValidationError, match="declared node"):
            NetworkSpec(nodes=("A",), edges=(Edge("A", "B", Lossy(0.5)),))

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkValidationError, match="self-loop"):
            Edge("A", "A", Lossy(0.5))

    def test_negative_usage_weight_rejected(self):
        with pytest.raises(NetworkValidationError):
            Edge("A", "B", Lossy(0.5), q=-1.0)

    def test_commodity_endpoints_checked(self):
        with pytest.raises(NetworkValidationError, match="commodity"):
            NetworkSpec(nodes=("A", "B"),
                        edges=(Edge("A", "B", Lossy(0.5)),),
                        commodities=(("A", "Z"),))

    def test_duplicate_uedge_rejected(self):
        with pytest.raises(NetworkValidationError, match="duplicate"):
            WeightedUGraph(vertices=("A", "B"),
                           uedges=(("A", "B", 1.0), ("B", "A", 2.0)))


class TestParse:
    MINIMAL = json.dumps({
        "nodes": ["A", "B"],
        "edges": [{"from": "A", "to": "B",
                   "channel": {"type": "lossy", "eta": 0.5}}],
    })

    def test_minimal_document(self):
        net = parse_network(self.MINIMAL)
        assert len(net.nodes) == 2
        assert len(net.edges) == 1
        assert net.edges[0].q == 1.0

    def test_eta_out_of_range_names_invariant(self):
        doc = json.dumps({"nodes": ["A", "B"], "edges": [
            {"from": "A", "to": "B",
             "channel": {"type": "lossy", "eta": 1.3}}]})
        with pytest.raises(NetworkValidationError, match="eta out of range"):
            parse_network(doc)

    def test_unknown_commodity_endpoint(self):
        doc = json.dumps({"nodes": ["A", "B"], "edges": [],
                          "commodities": [["A", "Z"]]})
        with pytest.raises(NetworkValidationError):
            parse_network(doc)

    def test_unknown_keys_rejected(self):
        doc = json.dumps({"nodes": ["A"], "edges": [], "extra": 1})
        with pytest.raises(NetworkParseError, match="unknown key"):
            parse_network(doc)
        doc = json.dumps({"nodes": ["A", "B"], "edges": [
            {"from": "A", "to": "B", "loss": 0.1,
             "channel": {"type": "lossy", "eta": 0.5}}]})
        with pytest.raises(NetworkParseError, match=r"edges\[0\]"):
            parse_network(doc)

    def test_syntax_error_reports_line(self):
        with pytest.raises(NetworkParseError, match="line"):
            parse_network("{\n  broken\n}")

    def test_field_path_in_errors(self):
        doc = json.dumps({"nodes": ["A", "B"], "edges": [
            {"from": "A", "to": "B", "channel": {"type": "warp"}}]})
        with pytest.raises(NetworkParseError,
                           match=r"edges\[0\].channel.type"):
            parse_network(doc)


_channels = st.one_of(
    st.builds(Lossy, eta=st.floats(0.0, 1.0, allow_nan=False)),
    st.builds(
        Explicit,
        E_upper=st.floats(0.0, 10.0, allow_nan=False),
        Q_lower=st.floats(0.0, 10.0, allow_nan=False),
    ).filter(lambda c: True),
)


@st.composite
def _networks(draw):
    n = draw(st.integers(2, 5))
    nodes = tuple(f"N{i}" for i in range(n))
    n_edges = draw(st.integers(0, 6))
    edges = []
    for _ in range(n_edges):
        i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda p: p[0] != p[1]))
        e_up = draw(st.floats(0.0, 8.0, allow_nan=False))
        q_low = draw(st.floats(0.0, 8.0, allow_nan=False))
        if q_low > e_up:
            e_up, q_low = q_low, e_up
        kind = draw(st.booleans())
        channel = (Lossy(draw(st.floats(0.0, 1.0, allow_nan=False)))
                   if kind else Explicit(e_up, q_low))
        edges.append(Edge(nodes[i], nodes[j], channel,
                          q=draw(st.floats(0.0, 4.0, allow_nan=False))))
    commodities = tuple()
    users = nodes[:draw(st.integers(0, n))] or None
    return NetworkSpec(nodes=nodes, edges=tuple(edges),
                       commodities=commodities, users=users)


@given(_networks())
@settings(max_examples=60, deadline=None)
def test_parse_serialize_round_trip(net):
    assert parse_network(serialize_network(net)) == net
