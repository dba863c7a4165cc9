"""Compare every ``qnd bounds`` result of this checkout with another one.

    PYTHONPATH=src python tests/compare_bounds.py OTHER_CHECKOUT

Runs the ``bounds`` commands of the golden snapshots (``test_golden.py``)
and seeded pure-loss grids from 3x3 to 10x10 (the programs that stay LPs
up to 6x6), with every task, usage unit and ``--esq-upper`` setting, once
with each checkout's ``src`` in a fresh interpreter.  Every lower and
upper bound must agree within 1e-12 relative.  Each ``channel-use`` q_opt
of this checkout on a grid is fed back as ``fixed-q`` usage weights, and
the lower bound it gives must match within the same tolerance (the grids
have no lossless channel, on which such a refit does not hold).  Prints
one line per command and exits 1 on any mismatch.
"""

import json
import math
import random
import sys
import tempfile
from pathlib import Path

from compare_samplers import run as run_commands
from test_golden import COMMANDS

HERE = Path(__file__).resolve().parent.parent
REL = 1e-12
TASKS = {"bipartite": ["--bipartite", "r0c0", "r{last}c{last}"],
         "total": ["--multipair", "--objective", "total"],
         "worst": ["--multipair", "--objective", "worst"],
         "multipartite": ["--multipartite"]}


def grid(k, rng, q=None):
    """A k x k pure-loss grid, eta in [0.2, 0.9], with the two crossing
    commodities and the four corners as users; ``q`` sets usage weights."""
    name = "r{}c{}".format
    edges = [{"from": name(i, j), "to": name(i + di, j + dj),
              "channel": {"type": "lossy", "eta": rng.uniform(0.2, 0.9)}}
             for i in range(k) for j in range(k)
             for di, dj in ((0, 1), (1, 0)) if i + di < k and j + dj < k]
    if q is not None:
        for edge, weight in zip(edges, q):
            edge["q"] = weight
    last = k - 1
    return {"nodes": [name(i, j) for i in range(k) for j in range(k)],
            "edges": edges,
            "commodities": [[name(0, 0), name(last, last)],
                            [name(0, last), name(last, 0)]],
            "users": [name(0, 0), name(0, last), name(last, 0),
                      name(last, last)]}


def lp_class(task, unit):
    """Whether the program of ``task`` under ``unit`` is solved as an LP."""
    if unit == "channel-use":
        return task == "multipartite"
    return task in ("total", "worst")


def run(checkout, commands):
    """(exit code, parsed JSON) of each command under ``checkout``."""
    return [(code, json.loads(out) if code == 0 else None)
            for code, out in run_commands(checkout, commands)]


def agree(a, b):
    return a == b or (math.isfinite(a) and math.isfinite(b)
                      and abs(a - b) <= REL * max(abs(a), abs(b)))


def main(other):
    with tempfile.TemporaryDirectory() as tmp:
        commands, grids = [], {}
        for name, argv in sorted(COMMANDS.items()):
            if argv[0] == "bounds":
                commands.append((name, argv + ["--format", "json"]))
        for k in (3, 4, 5, 6, 8, 10):
            doc = grid(k, random.Random(k))
            path = Path(tmp) / f"grid{k}.json"
            path.write_text(json.dumps(doc))
            grids[str(path)] = k
            for task, targs, unit, esq in (
                    (t, a, u, e) for t, a in TASKS.items()
                    for u in ("network-use", "channel-use", "fixed-q")
                    for e in ((), ("--esq-upper",))):
                if k > 6 and lp_class(task, unit):
                    continue  # the tableau needs minutes here
                commands.append((
                    f"grid{k}_{task}_{unit}{'_esq' if esq else ''}",
                    ["bounds", str(path)]
                    + [a.format(last=k - 1) for a in targs]
                    + ["--unit", unit, *esq]))
        argvs = [argv for _, argv in commands]
        mine, theirs = run(HERE, argvs), run(other, argvs)

        refits = []
        for (name, argv), (code, report) in zip(commands, mine):
            if argv[1] in grids and report and report["q_opt"]:
                k = grids[argv[1]]
                path = Path(tmp) / f"{name}_refit.json"
                path.write_text(json.dumps(grid(k, random.Random(k),
                                                report["q_opt"])))
                unit = argv.index("--unit") + 1
                refits.append((name, report, [
                    "bounds", str(path), *argv[2:unit], "fixed-q",
                    *argv[unit + 1:]]))
        refit_reports = run(HERE, [argv for *_, argv in refits])

        failed = 0
        for (name, _), (code, report), (other_code, other_report) in zip(
                commands, mine, theirs):
            ok = code == other_code
            if ok and code == 0:
                pairs = [(float(report[s]), float(other_report[s]))
                         for s in ("lower", "upper")]
                ok = all(agree(a, b) for a, b in pairs)
                worst = max((abs(a - b) / max(abs(a), abs(b))
                             for a, b in pairs
                             if math.isfinite(a) and a != b), default=0.0)
                detail = f"rel diff {worst:.1e}"
            else:
                detail = f"exit {code} / {other_code}"
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        for (name, report, _), (code, refit) in zip(refits, refit_reports):
            ok = code == 0 and agree(float(refit["lower"]),
                                     float(report["lower"]))
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} q_opt refit as "
                  f"fixed-q")
        print(f"{len(commands)} commands, {len(refits)} refits, "
              f"{failed} mismatches")
        return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
