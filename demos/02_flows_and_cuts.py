"""Flows, cuts, and their exact small-scale oracles.

Every bound in this package reduces to a flow computation, and every flow
computation has a combinatorial shadow: max-flow equals min-cut, total
concurrent flow is capped by the minimum multicut, worst-case concurrent
flow by the minimum cut ratio, and tree packing sits between half the
terminal-set connectivity and the connectivity itself.  The brute-force
oracles here make those relations checkable on any small instance.  A
single-commodity max-flow is Edmonds-Karp (breadth-first augmenting
paths); concurrent commodities sharing capacity are a linear program.
"""

import numpy as np

from qnd.flows import (max_flow, min_cut_bruteforce,
                       min_cut_ratio_bruteforce, min_multicut_bruteforce,
                       multicommodity_flow, s_connectivity,
                       steiner_packing_bruteforce)
from qnd.netmodel import WeightedUGraph

rng = np.random.default_rng(7)
names = [f"V{i}" for i in range(6)]
edges = []
for i in range(6):
    for j in range(i + 1, 6):
        if rng.random() < 0.6:
            edges.append((names[i], names[j], float(rng.integers(1, 5))))
graph = WeightedUGraph(vertices=tuple(names), uedges=tuple(edges))
print(f"random graph: {len(graph.vertices)} vertices, "
      f"{len(graph.uedges)} weighted edges")

print("\n=== max-flow / min-cut duality ===")
value, assignment = max_flow(graph, "V0", "V5")
cut = min_cut_bruteforce(graph, "V0", "V5")
print(f"  Edmonds-Karp max-flow V0->V5: {value:.6f}")
print(f"  brute-force min cut: {cut.weight:.6f} at W = {cut.partition}")
print(f"  cut edges: {cut.cut_edges}")
assert abs(value - cut.weight) < 1e-7

print("\n=== concurrent commodities ===")
pairs = [("V0", "V5"), ("V1", "V4")]
total, _ = multicommodity_flow(graph, pairs, "total")
worst, _ = multicommodity_flow(graph, pairs, "worst")
multicut, cut_edges = min_multicut_bruteforce(graph, pairs)
ratio, side = min_cut_ratio_bruteforce(graph, pairs)
print(f"  LP total flow {total:.4f} <= multicut {multicut:.4f}")
print(f"  LP worst flow {worst:.4f} <= cut ratio {ratio:.4f}")
print(f"  multicut edges: {cut_edges}")

print("\n=== tree packing in a unit multigraph ===")
multi = WeightedUGraph(
    vertices=("A", "B", "C", "D"),
    uedges=(("A", "B", 2.0), ("B", "C", 2.0), ("A", "C", 1.0),
            ("C", "D", 2.0)))
terminals = ("A", "B", "C")
packed = steiner_packing_bruteforce(multi, terminals)
connectivity = s_connectivity(multi, terminals)
print(f"  terminals {terminals}: {packed} edge-disjoint spanning trees, "
      f"connectivity {connectivity:.1f}")
print(f"  bracket: {connectivity / 2:.1f} <= {packed} <= "
      f"{connectivity:.1f} (conjectured lower half)")
