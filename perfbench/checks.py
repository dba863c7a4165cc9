"""Correctness checks on the parsed outputs of one benchmark pass.

Each check returns ``(check_id, ok, detail)``.  Checks compare numbers
with tolerances, never bytes, and use only public entry points: the CLI
outputs, ``qnd.netmodel``/``qnd.flows`` for the brute-force cut, and the
benchmark's own HiGHS max-flow below.
"""

import csv
import io
import itertools
import json
import math

import numpy as np
from scipy.optimize import linprog

# Checks that fail at the seed because of defects recorded in ROADMAP.md.
# They are run and counted as failed operations; they do not mark the run
# incorrect, so a new failure elsewhere still does.
KNOWN_DEFECTS = {
    "compare.det_swap[n=6,p_g=0.1,p_s=1.0]":
        "det_swap_mean loses precision at 64 segments",
    "probe.exit[chain track --n 3 --pg 0.01 --ps 0.5 --tcoh 100 "
    "--cutoff 50]":
        "default tracker horizon too short for this cut-off chain",
}

TIGHT_REL = 1e-9
FLOW_REL = 1e-7
MARKOV_REL = 1e-9
MASS_FLOOR = 1.0 - 1e-6
DET_SWAP_REL = 1e-6
SIGMAS = 4.0
BRUTE_FORCE_MAX_VERTICES = 16


def parse_output(argv, text):
    """Bounds reports are JSON objects; chain and compare tables are CSV.
    Returns a list of row dicts with numeric cells as floats."""
    if argv[0] == "bounds":
        return [json.loads(text)]
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({k: _number(v) for k, v in row.items()})
    return rows


def _number(cell):
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def same_numbers(rows_a, rows_b, rel=1e-9):
    """Numeric equality of two parsed outputs within a relative tolerance."""
    if len(rows_a) != len(rows_b):
        return False
    for a, b in zip(rows_a, rows_b):
        if a.keys() != b.keys():
            return False
        for key, x in a.items():
            y = b[key]
            if isinstance(x, float) and isinstance(y, float):
                if not _close(x, y, rel):
                    return False
            elif isinstance(x, list) and isinstance(y, list):
                if len(x) != len(y) or not all(
                        _close(p, q, rel) for p, q in zip(x, y)):
                    return False
            elif x != y:
                return False
    return True


def _close(x, y, rel):
    if math.isinf(x) or math.isinf(y) or math.isnan(x) or math.isnan(y):
        return x == y or (math.isnan(x) and math.isnan(y))
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# --- bounds ------------------------------------------------------------------

def _capacity_weights(doc):
    """Undirected pure-loss weights -log2(1 - eta) summed per node pair."""
    weights = {}
    for e in doc["edges"]:
        key = tuple(sorted((e["from"], e["to"])))
        w = -math.log2(1.0 - e["channel"]["eta"])
        weights[key] = weights.get(key, 0.0) + w
    return weights


def highs_max_flow(doc, s, t):
    """Maximum s-t flow on the undirected pure-loss graph, solved with
    HiGHS: one variable per edge direction, shared edge capacity,
    conservation at every other node."""
    weights = _capacity_weights(doc)
    edges = sorted(weights)
    nodes = doc["nodes"]
    col = {v: i for i, v in enumerate(nodes)}
    n_var = 2 * len(edges)
    incidence = np.zeros((len(nodes), n_var))
    for j, (u, v) in enumerate(edges):
        # variable 2j carries u -> v, 2j + 1 carries v -> u
        incidence[col[u], 2 * j] += 1.0
        incidence[col[v], 2 * j] -= 1.0
        incidence[col[v], 2 * j + 1] += 1.0
        incidence[col[u], 2 * j + 1] -= 1.0
    keep = [col[v] for v in nodes if v not in (s, t)]
    capacity = np.zeros((len(edges), n_var))
    for j in range(len(edges)):
        capacity[j, 2 * j] = capacity[j, 2 * j + 1] = 1.0
    res = linprog(-incidence[col[s]], A_ub=capacity,
                  b_ub=[weights[e] for e in edges],
                  A_eq=incidence[keep], b_eq=np.zeros(len(keep)),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS max-flow failed: {res.message}")
    return -res.fun


def brute_force_min_cut(path, s, t):
    """Minimum cut from the package's brute-force oracle on the undirected
    graph of the parsed network."""
    from qnd import netmodel, flows
    with open(path, encoding="utf-8") as fh:
        net = netmodel.parse_network(fh.read())
    graph = netmodel.undirect(net, netmodel.Measure.UPPER_ENTANGLEMENT)
    return flows.min_cut_bruteforce(graph, s, t).weight


def check_bounds(argv, rows):
    """Checks of one bounds report; ``argv[1]`` is its network file."""
    report = rows[0]
    path = argv[1]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    label = " ".join([argv[0], f"{len(doc['nodes'])}-node grid"] + argv[2:])
    lower, upper = report["lower"], report["upper"]
    out = [(f"bounds.ordered[{label}]", lower <= upper,
            f"lower={lower!r} upper={upper!r}")]
    # The multipartite lower bound is scaled by the tree-packing constant,
    # so only bipartite and multipair reports are tight on pure loss.
    network_use = ("--unit" not in argv
                   or argv[argv.index("--unit") + 1] == "network-use")
    if network_use and "--multipartite" not in argv:
        out.append((f"bounds.tight[{label}]",
                     _close(lower, upper, TIGHT_REL),
                     f"lower={lower!r} upper={upper!r}"))
    if "--bipartite" in argv and network_use:
        s, t = argv[argv.index("--bipartite") + 1:][:2]
        ref = highs_max_flow(doc, s, t)
        out.append((f"bounds.highs[{label}]", _close(upper, ref, FLOW_REL),
                    f"upper={upper!r} highs={ref!r}"))
        if len(doc["nodes"]) <= BRUTE_FORCE_MAX_VERTICES:
            cut = brute_force_min_cut(path, s, t)
            out.append((f"bounds.min_cut[{label}]",
                        _close(upper, cut, FLOW_REL),
                        f"upper={upper!r} min_cut={cut!r}"))
    if "--multipartite" in argv:
        ref = min(highs_max_flow(doc, a, b)
                  for a, b in itertools.combinations(doc["users"], 2))
        out.append((f"bounds.multipartite_min_pair[{label}]",
                    _close(upper, ref, FLOW_REL),
                    f"upper={upper!r} min_pairwise={ref!r}"))
    return out


# --- exact chain engines -------------------------------------------------------

def _cell(row):
    return (f"n={int(row['n'])},p_g={row['p_g']!r},p_s={row['p_s']!r}")


def check_track(rows):
    return [(f"track.captured_mass[{_cell(r)},t_coh={r['t_coh']!r},"
             f"tau={r['tau']!r}]",
             r["captured_mass"] >= MASS_FLOOR,
             f"captured_mass={r['captured_mass']!r}")
            for r in rows]


def check_markov(rows, track_rows):
    tracked = {_cell(r): r["mean_t"] for r in track_rows
               if r["tau"] is None and math.isinf(r["t_coh"])}
    out = []
    for r in rows:
        exact = tracked.get(_cell(r))
        ok = exact is not None and _close(r["mean_t"], exact, MARKOV_REL)
        out.append((f"markov.mean[{_cell(r)}]", ok,
                    f"markov={r['mean_t']!r} tracked={exact!r}"))
    return out


def check_compare(rows):
    return [(f"compare.det_swap[{_cell(r)}]",
             r["rel_err_det_swap"] <= DET_SWAP_REL,
             f"rel_err_det_swap={r['rel_err_det_swap']!r}")
            for r in rows if r["p_s"] == 1.0]


# --- sampling engines ----------------------------------------------------------

def check_sampled(rows, tracked_rows, n_samples):
    """Sample means within SIGMAS standard errors of the tracked mean.

    For the Werner parameter the CLI reports no standard error; since w
    lies in [0, 1], its variance is at most mu (1 - mu) (Bhatia-Davis),
    which bounds the standard error from above."""
    out = []
    for r, ref in zip(rows, tracked_rows):
        label = (f"{r['engine']}[{_cell(r)},t_coh={r['t_coh']!r},"
                 f"tau={r['tau']!r}]")
        mu = ref["mean_t"]
        dev = abs(r["mean_t"] - mu)
        out.append((f"sampled.mean_t.{label}", dev <= SIGMAS * r["stderr_t"],
                    f"mean_t={r['mean_t']!r} tracked={mu!r} "
                    f"stderr={r['stderr_t']!r}"))
        if r["tau"] is not None:
            mu_w = ref["mean_w"]
            sigma_w = math.sqrt(max(mu_w * (1.0 - mu_w), 0.0) / n_samples)
            out.append((f"sampled.mean_w.{label}",
                        abs(r["mean_w"] - mu_w) <= SIGMAS * sigma_w,
                        f"mean_w={r['mean_w']!r} tracked={mu_w!r}"))
    return out


def tracked_reference_argv(argv):
    """The track command for the same chain as an MC or DES command."""
    out = ["chain", "track"]
    rest = iter(argv[2:])
    for a in rest:
        if a in ("--samples", "--seed"):
            next(rest)  # drop the option's value too
        else:
            out.append(a)
    return out
