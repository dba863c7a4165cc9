"""Workload definitions: the seeded input files and the ``qnd`` command
groups that one benchmark pass runs.

Every workload runs the same eleven command groups, so that every
end-to-end metric exists on every workload; the workloads differ in input
size.  ``reference`` uses the sizes of the capacity and repeater-chain
studies the package reproduces; ``small`` runs the same commands on inputs
so small that per-call overhead (argument parsing, LP assembly, FFT set-up,
object creation per sample) dominates.  See README.md for the rationale.
"""

import json
import os
import random
from dataclasses import dataclass

# Pure-loss transmissivities are drawn from this range.
ETA_RANGE = (0.2, 0.9)

# The MC and DES groups run this many rounds per pass, one call per group
# in each and a different sampler seed per round, so a run yields several
# samples-per-second readings spread over the pass and over sample paths.
ROUNDS = 4


@dataclass(frozen=True)
class GridSpec:
    """A k x k grid of pure-loss channels written as one JSON network file.

    ``users`` and ``commodities`` are given as (row, column) corners so the
    same spec works at any size."""

    k: int
    users: tuple = ()
    commodities: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    grids: dict          # file key -> GridSpec
    groups: tuple        # (metric name, "time" or "rate", argv templates)
    probes: tuple        # untimed argv templates, run once per run
    replay_n: int        # nesting level of the traced disttrack unit replay


def node(i, j):
    return f"r{i}c{j}"


def grid_network(spec, rng):
    """JSON document of a k x k grid with one directed lossy channel per
    neighbouring node pair, eta drawn uniformly from ETA_RANGE."""
    k = spec.k
    edges = []
    for i in range(k):
        for j in range(k):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < k and j + dj < k:
                    edges.append({
                        "from": node(i, j), "to": node(i + di, j + dj),
                        "channel": {"type": "lossy",
                                    "eta": rng.uniform(*ETA_RANGE)}})
    doc = {"nodes": [node(i, j) for i in range(k) for j in range(k)],
           "edges": edges}
    if spec.commodities:
        doc["commodities"] = [[node(*a), node(*b)]
                              for a, b in spec.commodities]
    if spec.users:
        doc["users"] = [node(*u) for u in spec.users]
    return doc


def write_inputs(workload, seed, directory):
    """Write the workload's network files; returns the template values
    (file paths and the sampler seed) for its argv templates."""
    rng = random.Random(seed)
    values = {}
    for key, spec in sorted(workload.grids.items()):
        path = os.path.join(directory, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(grid_network(spec, rng), fh)
        values[key] = path
    values["sampler_seed"] = str(rng.randrange(1, 2 ** 31))
    return values


def expand(argv, values):
    return [a.format(**values) for a in argv]


def _corners(k):
    last = k - 1
    return ((0, 0), (0, last), (last, 0), (last, last))


def _crossing_pairs(k):
    last = k - 1
    return (((0, 0), (last, last)), ((0, last), (last, 0)))


def _bip(key, k, unit="network-use"):
    return ("bounds", "{" + key + "}", "--bipartite", node(0, 0),
            node(k - 1, k - 1), "--unit", unit)


def _chain(engine, n, *extra):
    return ("chain", engine, "--n", n, "--pg", "0.1", "--ps", "0.5") + extra


def _sampled_groups(n, samples):
    mc = ("--samples", str(samples), "--seed", "{sampler_seed}")
    des = ("--samples", str(samples // 2), "--seed", "{sampler_seed}")
    cut = ("--tcoh", "200", "--cutoff", "40")
    return (
        ("mc.swap_sps", "rate", (_chain("mc", n, *mc),)),
        ("mc.cutoff_sps", "rate", (_chain("mc", n, *cut, *mc),)),
        ("des.swap_sps", "rate", (_chain("des", n, *des),)),
        ("des.cutoff_sps", "rate", (_chain("des", n, *cut, *des),)),
    )


def build_workload(name, sizes, chain, samples, replay_n, probes=()):
    """Both workloads share this shape; ``sizes`` holds the grid sides
    (small bipartite set, channel-use, multipair/multipartite, large
    bipartite) and ``chain`` the nesting levels."""
    small_set, cu, multi, large = sizes
    grids = {f"g{k}": GridSpec(k) for k in small_set + (large,)}
    grids[f"g{cu}"] = GridSpec(cu)
    grids["multi"] = GridSpec(multi, users=_corners(multi),
                              commodities=_crossing_pairs(multi))
    bounds_small = tuple(_bip(f"g{k}", k) for k in small_set) + (
        _bip(f"g{cu}", cu, "channel-use"),
        ("bounds", "{multi}", "--multipair", "--objective", "worst"))
    groups = (
        ("bounds.small_s", "time", bounds_small),
        ("bounds.bipartite_s", "time", (_bip(f"g{large}", large),)),
        ("bounds.multipartite_s", "time",
         (("bounds", "{multi}", "--multipartite"),)),
        ("track.swap_s", "time", (_chain("track", chain["swap"]),)),
        ("track.noisy_s", "time", (
            _chain("track", chain["cutoff"], "--tcoh", "200",
                   "--cutoff", "40,100"),
            _chain("track", chain["distill"], "--tcoh", "1000",
                   "--distill-rounds", "1", "--w0", "0.95"))),
        ("markov.chain_s", "time", (_chain("markov", chain["markov"]),)),
        ("compare.grid_s", "time", (
            ("compare", "--n", chain["compare"], "--pg", "0.1",
             "--ps", "0.5,1.0"),)),
    ) + _sampled_groups(chain["sampled"], samples)
    return Workload(name=name, grids=grids, groups=groups, probes=probes,
                    replay_n=replay_n)


WORKLOADS = {
    "reference": build_workload(
        "reference", sizes=((4, 6, 8), 6, 5, 10),
        chain={"swap": "1,2,3,4,5,6,7", "cutoff": "3,4", "distill": "2",
               "markov": "1,2,3", "compare": "1,2,3,4,5,6", "sampled": "2"},
        samples=1000, replay_n=6,
        # The default horizon of this cut-off chain is too short: a known
        # defect, run untimed so that it stays visible.
        probes=(("chain", "track", "--n", "3", "--pg", "0.01", "--ps", "0.5",
                 "--tcoh", "100", "--cutoff", "50"),)),
    "small": build_workload(
        "small", sizes=((3, 4), 4, 4, 5),
        chain={"swap": "1,2,3,4", "cutoff": "2,3", "distill": "1",
               "markov": "1,2", "compare": "1,2,3,4", "sampled": "1"},
        samples=1000, replay_n=3),
}
