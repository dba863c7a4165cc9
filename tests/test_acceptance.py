"""Acceptance suite: every release criterion, one test per criterion,
each printing a pass line with the measured numbers.

Cross-engine identities run at their stated tolerances; sampling engines
get statistical gates (4 standard errors, or Kolmogorov-Smirnov at the 1%
level), so a sound build fails a given seed with negligible probability.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from qnd import capbounds, chainformulas, deskernel, disttrack
from qnd import flows, markovchain, montecarlo
from qnd.chainformulas import ChainParams
from qnd.cli import main
from qnd.netmodel import Edge, Explicit, Lossy, NetworkSpec

HALF_LOG2 = 1.0 / math.log(2.0)  # t_coh giving per-step decay 1/2


def _report(number, text):
    print(f"[criterion {number:2d}] PASS: {text}")


def test_criterion_01_single_repeater_concordance():
    t0 = time.time()
    params = ChainParams(n=1, p_g=0.5, p_s=0.5)
    target = 16.0 / 3.0

    closed = chainformulas.single_repeater(params).mean_t1
    assert abs(closed - target) < 1e-6

    tracked = disttrack.chain_distribution(params, t_trunc=400)
    assert abs(tracked.mean() - target) < 1e-6

    chain = markovchain.build_chain(params,
                                    markovchain.SwapTimeMode.ZERO_STEP)
    markov_mean = markovchain.absorption_stats(chain)["mean"]
    assert abs(markov_mean - target) < 1e-6

    mc = montecarlo.run_batch(params, n_samples=100_000, seed=101)
    assert abs(mc.mean_t - target) < 4.0 * mc.stderr_t

    des = deskernel.simulate_batch(params, n_samples=100_000, seed=102)
    assert abs(des.mean_t - target) < 4.0 * des.stderr_t

    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, f"five engines at 16/3: closed {closed:.9f}, tracked "
               f"{tracked.mean():.9f}, markov {markov_mean:.9f}, "
               f"mc {mc.mean_t:.4f}+-{mc.stderr_t:.4f}, "
               f"des {des.mean_t:.4f}+-{des.stderr_t:.4f}; "
               f"{elapsed:.1f} s")


def test_criterion_02_deterministic_swap_exactness():
    two = chainformulas.det_swap_mean(2, 0.5)
    assert abs(two - 8.0 / 3.0) < 1e-12
    assert abs(two - (3.0 - 1.0) / (1.5 * 0.5)) < 1e-12

    def pmf_mean_max_geometric(n, p):
        mean, t = 0.0, 0
        while True:
            survival = 1.0 - (1.0 - (1.0 - p) ** t) ** n
            mean += survival
            t += 1
            if survival < 1e-15:
                return mean

    four = chainformulas.det_swap_mean(4, 0.5)
    assert abs(four - pmf_mean_max_geometric(4, 0.5)) < 1e-9
    assert abs(four - 3.50476) < 5e-6

    harmonic = chainformulas.det_swap_mean_harmonic(4, 0.01)
    exact = chainformulas.det_swap_mean(4, 0.01)
    assert abs(harmonic - 208.33) < 0.01
    assert abs(exact - 207.79) < 0.01
    assert abs(harmonic - exact) / exact < 0.003
    _report(2, f"det-swap means: N=2 {two:.9f}, N=4 {four:.6f}, "
               f"harmonic {harmonic:.2f} vs exact {exact:.2f}")


def test_criterion_03_cutoff_formula_limits():
    unlimited = chainformulas.det_swap_mean(4, 0.5)
    capped = chainformulas.det_swap_mean_cutoff(4, 0.5, 10_000)
    assert abs(capped - unlimited) < 1e-9
    assert chainformulas.det_swap_mean_cutoff(3, 1.0, 1) == 1.0
    _report(3, f"cut-off formula: tau=1e4 gives {capped:.9f} = "
               f"no-cut-off {unlimited:.9f}; p_g=1, tau=1 gives 1")


def test_criterion_04_approximation_error_grid():
    t0 = time.time()
    p_s_grid = [round(0.1 * k, 1) for k in range(1, 10)]
    cells = [(n, 0.5, ps) for n in (1, 2, 3, 4) for ps in p_s_grid]
    cells += [(n, 0.1, ps) for n in (1, 2) for ps in p_s_grid]

    exact = {}
    for n, pg, ps in cells:
        params = ChainParams(n=n, p_g=pg, p_s=ps)
        horizon = max(400, int(math.ceil(
            25 * chainformulas.geometric_level_mean(params))))
        exact[(n, pg, ps)] = disttrack.chain_distribution(
            params, t_trunc=horizon).mean()

    # Geometric-level approximation is exact at one nesting level.
    for pg in (0.5, 0.1):
        for ps in p_s_grid:
            params = ChainParams(n=1, p_g=pg, p_s=ps)
            approx = chainformulas.geometric_level_mean(params)
            rel = abs(approx - exact[(1, pg, ps)]) / exact[(1, pg, ps)]
            assert rel < 1e-9, (pg, ps, rel)

    # Deterministic-swap approximation lower-bounds the exact mean
    # everywhere on the grid.
    for (n, pg, ps), value in exact.items():
        det = chainformulas.det_swap_mean(2 ** n, pg)
        assert det <= value + 1e-9, (n, pg, ps)

    # The geometric-level error shrinks toward small swap probability.
    def rel_err(n, pg, ps):
        params = ChainParams(n=n, p_g=pg, p_s=ps)
        approx = chainformulas.geometric_level_mean(params)
        return abs(approx - exact[(n, pg, ps)]) / exact[(n, pg, ps)]

    assert rel_err(2, 0.1, 0.1) < rel_err(2, 0.1, 0.9)

    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, f"{len(cells)} grid cells: level-1 exactness, det-swap "
               f"lower bound, error trend at n=2; {elapsed:.1f} s")


def test_criterion_05_pmf_shape_deviation():
    params = ChainParams(n=2, p_g=0.5, p_s=0.5)
    dist = disttrack.chain_distribution(params)
    mean = dist.mean()
    matched = disttrack.geometric_pmf(1.0 / mean, dist.t_trunc)
    deviation = np.abs(dist.pmf - matched.pmf)
    t_peak = int(np.argmax(deviation))
    assert t_peak < mean
    _report(5, f"exact n=2 PMF vs moment-matched geometric deviates most "
               f"at t={t_peak}, below the mean {mean:.2f}")


def test_criterion_06_decay_factor():
    gamma = chainformulas.decay_factor(0.5, 0.5)
    assert abs(gamma - 5.0 / 9.0) < 1e-12

    d = disttrack.geometric_pmf(0.5, 400)
    combined = disttrack.max_combine(d, d, t_coh=HALF_LOG2)
    assert abs(combined.mean_werner() - 5.0 / 9.0) < 1e-6

    params = ChainParams(n=1, p_g=0.5, p_s=1.0, t_coh=HALF_LOG2)
    mc = montecarlo.run_batch(params, n_samples=100_000, seed=106)
    assert abs(mc.mean_w - 5.0 / 9.0) < 4.0 * mc.stderr_w

    assert chainformulas.decay_factor(1.0, 0.5) == pytest.approx(1.0)
    assert chainformulas.decay_factor(0.5, 1.0) == pytest.approx(1.0)
    _report(6, f"decay factor 5/9: closed {gamma:.9f}, tracked "
               f"{combined.mean_werner():.9f}, mc {mc.mean_w:.4f}"
               f"+-{mc.stderr_w:.4f}; anchors at 1 hold")


def test_criterion_07_max_flow_equals_min_cut():
    t0 = time.time()
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(50):
        n_vertices = int(rng.integers(3, 9))
        names = [f"V{i}" for i in range(n_vertices)]
        edges = []
        for i, j in itertools.combinations(range(n_vertices), 2):
            if rng.random() < 0.6:
                edges.append((names[i], names[j],
                              float(rng.integers(0, 6))))
        graph = __import__("qnd.netmodel", fromlist=["WeightedUGraph"]) \
            .WeightedUGraph(vertices=tuple(names), uedges=tuple(edges))
        for _ in range(3):
            s, t = rng.choice(n_vertices, size=2, replace=False)
            flow, _ = flows.max_flow(graph, names[s], names[t])
            cut = flows.min_cut_bruteforce(graph, names[s], names[t])
            assert abs(flow - cut.weight) <= 1e-7
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(7, f"max-flow equals brute-force min-cut on {checked} "
               f"terminal pairs across 50 random graphs; {elapsed:.1f} s")


def _random_mixed_network(rng, n_nodes=5):
    nodes = tuple(f"N{i}" for i in range(n_nodes))
    edges = []
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.random() < 0.7:
            q_low = float(rng.random() * 2)
            e_up = q_low + float(rng.random() * 2)
            edges.append(Edge(nodes[i], nodes[j], Explicit(e_up, q_low),
                              q=float(rng.random() * 2)))
    return NetworkSpec(nodes=nodes, edges=tuple(edges))


def test_criterion_08_capacity_sandwich():
    nodes = ("A", "M1", "M2", "B")
    chain3 = NetworkSpec(
        nodes=nodes,
        edges=tuple(Edge(nodes[i], nodes[i + 1], Lossy(0.5))
                    for i in range(3)))
    per_net = capbounds.bipartite_bounds(
        chain3, "A", "B", capbounds.UsageUnit.PER_NETWORK_USE)
    assert per_net.lower == pytest.approx(1.0, abs=1e-9)
    assert per_net.upper == pytest.approx(1.0, abs=1e-9)

    per_chan = capbounds.bipartite_bounds(
        chain3, "A", "B", capbounds.UsageUnit.PER_CHANNEL_USE)
    assert per_chan.lower == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert per_chan.upper == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert np.allclose(per_chan.q_opt, 1.0 / 3.0, atol=1e-9)

    rng = np.random.default_rng(31415)
    for k in range(100):
        net = _random_mixed_network(rng)
        unit = (capbounds.UsageUnit.PER_CHANNEL_USE if k % 10 == 0
                else capbounds.UsageUnit.PER_NETWORK_USE)
        report = capbounds.bipartite_bounds(net, "N0", "N4", unit)
        assert report.lower <= report.upper + 1e-9
    _report(8, "pure-loss 3-chain sandwich tight at 1.0 (network use) "
               "and 1/3 with uniform q (channel use); lower <= upper on "
               "100 random mixed networks")


def test_criterion_09_multicommodity_properties():
    rng = np.random.default_rng(926535)
    total_vs_worst = 0
    oracle_checked = 0
    for _ in range(50):
        n_vertices = int(rng.integers(3, 6))
        names = [f"V{i}" for i in range(n_vertices)]
        edges = []
        for i, j in itertools.combinations(range(n_vertices), 2):
            if rng.random() < 0.7:
                edges.append((names[i], names[j],
                              float(rng.integers(1, 4))))
        from qnd.netmodel import WeightedUGraph
        graph = WeightedUGraph(vertices=tuple(names), uedges=tuple(edges))
        k = int(rng.integers(1, 4))
        pairs = []
        for _ in range(k):
            s, t = rng.choice(n_vertices, size=2, replace=False)
            pairs.append((names[s], names[t]))
        total, _ = flows.multicommodity_flow(graph, pairs, "total")
        worst, _ = flows.multicommodity_flow(graph, pairs, "worst")
        assert total >= k * worst - 1e-7
        total_vs_worst += 1
        if len(graph.uedges) <= flows.MAX_MULTICUT_EDGES:
            multicut, _ = flows.min_multicut_bruteforce(graph, pairs)
            assert total <= multicut + 1e-7
            ratio, _ = flows.min_cut_ratio_bruteforce(graph, pairs)
            assert worst <= ratio + 1e-7
            oracle_checked += 1
        if k == 1:
            single, _ = flows.max_flow(graph, *pairs[0])
            assert abs(total - single) <= 1e-9
            assert abs(worst - single) <= 1e-9
    assert oracle_checked >= 25
    _report(9, f"total >= k*worst on {total_vs_worst} instances; flow "
               f"bounds below multicut/cut-ratio oracles on "
               f"{oracle_checked}; k=1 reduces to max-flow")


def _bell(which):
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


def _cnot(control, target, n_qubits=4):
    dim = 2 ** n_qubits
    u = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        if bits[control]:
            bits[target] ^= 1
        u[sum(b << (n_qubits - 1 - q) for q, b in enumerate(bits)), idx] = 1.0
    return u


def distill_oracle(f1, f2):
    """Exact 16x16 two-pair distillation: bilateral CNOT, measure the
    second pair, post-select equal outcomes."""
    def werner(fidelity):
        rho = fidelity * np.outer(_bell(0), _bell(0))
        for b in (1, 2, 3):
            rho += (1.0 - fidelity) / 3.0 * np.outer(_bell(b), _bell(b))
        return rho

    rho = np.kron(werner(f1), werner(f2))
    u = _cnot(0, 2) @ _cnot(1, 3)
    rho = u @ rho @ u.T
    kept = np.zeros((4, 4))
    p = 0.0
    for outcome in (0, 3):
        sel = [(a1b1 << 2) | outcome for a1b1 in range(4)]
        block = rho[np.ix_(sel, sel)]
        p += float(np.trace(block))
        kept += block
    kept /= p
    return p, float(_bell(0) @ kept @ _bell(0))


def test_criterion_10_distillation_oracle():
    worst_p = worst_f = 0.0
    for f1 in np.linspace(0.5, 1.0, 10):
        for f2 in np.linspace(0.5, 1.0, 10):
            p_ref, f_ref = distill_oracle(f1, f2)
            w1, w2 = (4.0 * f1 - 1.0) / 3.0, (4.0 * f2 - 1.0) / 3.0
            prob = disttrack.distill_success_prob(w1, w2)
            fidelity = disttrack.werner_to_fidelity(
                disttrack.distill_output_w(w1, w2))
            worst_p = max(worst_p, abs(prob - p_ref))
            worst_f = max(worst_f, abs(fidelity - f_ref))
    assert worst_p < 1e-12
    assert worst_f < 1e-12
    _report(10, f"distillation matches the 16x16 density-matrix oracle on "
                f"a 10x10 fidelity grid; max deviations {worst_p:.2e} "
                f"(probability), {worst_f:.2e} (fidelity)")


def test_criterion_11_scale_check():
    t0 = time.time()
    params = ChainParams(n=10, p_g=0.9, p_s=1.0)
    dist = disttrack.chain_distribution(params, t_trunc=10_000)
    elapsed = time.time() - t0
    assert dist.captured_mass >= 1.0 - 1e-6
    assert elapsed < 300.0
    # Independent closed form: with deterministic swaps the delivery time
    # is the maximum of 1024 geometric generations.
    closed = chainformulas.det_swap_mean(1024, 0.9)
    assert abs(dist.mean() - closed) < 1e-6
    _report(11, f"1024 segments tracked in {elapsed:.2f} s, captured mass "
                f"{dist.captured_mass:.9f}, mean {dist.mean():.6f} = "
                f"closed form {closed:.6f}")


def test_criterion_12_cli_determinism(tmp_path):
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps({
        "nodes": ["A", "M", "B"],
        "edges": [
            {"from": "A", "to": "M",
             "channel": {"type": "lossy", "eta": 0.5}},
            {"from": "M", "to": "B",
             "channel": {"type": "lossy", "eta": 0.5}},
        ],
        "commodities": [["A", "M"], ["M", "B"]],
        "users": ["A", "M", "B"],
    }))
    commands = [
        ["bounds", str(netfile), "--bipartite", "A", "B"],
        ["bounds", str(netfile), "--multipair", "--objective", "worst"],
        ["bounds", str(netfile), "--multipartite", "--format", "csv"],
        ["chain", "analytic", "--n", "1,2", "--pg", "0.5", "--ps", "0.5"],
        ["chain", "track", "--n", "1", "--pg", "0.5", "--ps", "0.5",
         "--trunc", "400"],
        ["chain", "markov", "--n", "1", "--pg", "0.5", "--ps", "0.5"],
        ["chain", "mc", "--n", "1", "--pg", "0.5", "--ps", "0.5",
         "--samples", "2000", "--seed", "7"],
        ["chain", "des", "--n", "1", "--pg", "0.5", "--ps", "0.5",
         "--samples", "2000", "--seed", "7"],
        ["compare", "--n", "1", "--pg", "0.5", "--ps", "0.5"],
        ["simulate", "--n", "1", "--pg", "0.5", "--ps", "0.5",
         "--samples", "500", "--seed", "9", "--trace-hash"],
    ]
    for i, argv in enumerate(commands):
        out1 = tmp_path / f"run{i}_a.txt"
        out2 = tmp_path / f"run{i}_b.txt"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), argv
    _report(12, f"{len(commands)} CLI commands byte-identical across "
               f"reruns, including the event-trace hash")
