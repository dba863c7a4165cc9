"""Compare every tracker output of this checkout with another one.

    PYTHONPATH=src python tests/compare_tracker.py OTHER_CHECKOUT

Runs ``chain track`` and ``compare`` over fixed grids (``GRIDS``) and over
grids drawn from a seeded generator, once with each checkout's ``src`` in
a fresh interpreter.  The grids hold several depths in any order, some
repeated, with cut-offs, decay, distillation rounds and w0, and the PMF
options: ``--trunc`` that cuts or pads, ``--export-pmf`` and
``--pmf-out``; some cut so short that the command exits 3.  Every command
must give the same exit code, the same stdout and the same bytes in every
file it writes.  Prints each differing command and a summary line, and
exits 1 on any difference.
"""

import random
import sys
import tempfile
from pathlib import Path

from compare_samplers import HERE, run

SEED = 7
DRAWS = 100
GRIDS = {
    "track swap": ["chain", "track", "--n", "3,0,2,1,3", "--pg", "0.1,0.5",
                   "--ps", "0.5,1.0"],
    "track json": ["chain", "track", "--n", "2,1", "--pg", "0.3", "--ps",
                   "0.6", "--format", "json"],
    "track noisy": ["chain", "track", "--n", "2,0,1", "--pg", "0.5,0.9",
                    "--ps", "0.5", "--tcoh", "inf,40", "--cutoff", "6,12",
                    "--w0", "0.95"],
    "track distill": ["chain", "track", "--n", "1,2,0,2", "--pg", "0.6",
                      "--ps", "0.7", "--tcoh", "60", "--distill-rounds", "1",
                      "--w0", "0.95"],
    "track trunc cut": ["chain", "track", "--n", "3,1,2", "--pg", "0.5",
                        "--ps", "0.5", "--trunc", "600"],
    "track trunc pad": ["chain", "track", "--n", "1,2", "--pg", "0.5",
                        "--ps", "0.5,1.0", "--trunc", "5000"],
    "track trunc short": ["chain", "track", "--n", "1,3", "--pg", "0.5",
                          "--ps", "0.5", "--trunc", "150"],
    "track export": ["chain", "track", "--n", "2,0,1,2", "--pg", "0.5",
                     "--ps", "0.5", "--tcoh", "40", "--cutoff", "12",
                     "--export-pmf", "{out}/pmf.csv"],
    "compare": ["compare", "--n", "1,2,3,4", "--pg", "0.1,0.5", "--ps",
                "0.5,1.0"],
    "compare trunc": ["compare", "--n", "3,1,2", "--pg", "0.5", "--ps",
                      "0.5", "--trunc", "600"],
    "compare pmf-out": ["compare", "--n", "2,1,0", "--pg", "0.5,0.9",
                        "--ps", "0.5", "--pmf-out", "{out}/pmf"],
}


def _choose(rng, values, most):
    """One to ``most`` of ``values``, with repeats, in drawn order."""
    return ",".join(str(rng.choice(values))
                    for _ in range(rng.randint(1, most)))


def drawn(rng):
    """A ``chain track`` or ``compare`` grid drawn from ``rng``."""
    argv = ["--n", _choose(rng, range(4), 4),
            "--pg", _choose(rng, (0.3, 0.5, 0.9), 2),
            "--ps", _choose(rng, (0.5, 0.8, 1.0), 2)]
    option = rng.choice([None, None, "cut", "pad", "pmf"])
    if option in ("cut", "pad"):
        argv += ["--trunc", "40" if option == "cut" else "20000"]
    if rng.random() < 0.5:
        if option == "pmf":
            argv += ["--pmf-out", "{out}/pmf"]
        return ["compare", *argv]
    argv += ["--tcoh", rng.choice(("inf", "30", "inf,80")),
             "--w0", rng.choice(("1.0", "0.9")),
             "--distill-rounds", rng.choice(("0", "0", "1"))]
    if rng.random() < 0.5:
        argv += ["--cutoff", _choose(rng, (8, 20, 50), 2)]
    if option == "pmf":
        argv += ["--export-pmf", "{out}/pmf.csv"]
    return ["chain", "track", *argv]


def commands():
    """(name, argv) of every compared command; "{out}" names a directory
    of the command's own."""
    yield from GRIDS.items()
    rng = random.Random(SEED)
    for i in range(DRAWS):
        argv = drawn(rng)
        yield f"drawn {i}: {' '.join(argv)}", argv


def outputs(checkout, argvs, directory):
    """(exit code, stdout, {file: bytes}) of each command under
    ``checkout``, with its files written below ``directory``."""
    outs = [Path(directory) / str(i) for i in range(len(argvs))]
    for out in outs:
        out.mkdir()
    results = run(checkout, [[arg.format(out=out) for arg in argv]
                             for argv, out in zip(argvs, outs)])
    return [(code, stdout, {path.relative_to(out).as_posix():
                            path.read_bytes()
                            for path in sorted(out.rglob("*"))
                            if path.is_file()})
            for (code, stdout), out in zip(results, outs)]


def main(other):
    named = list(commands())
    argvs = [argv for _, argv in named]
    with tempfile.TemporaryDirectory() as mine_dir, \
            tempfile.TemporaryDirectory() as their_dir:
        mine = outputs(HERE, argvs, mine_dir)
        theirs = outputs(other, argvs, their_dir)
    failed = 0
    for (name, _), result, other_result in zip(named, mine, theirs):
        if result != other_result:
            failed += 1
            print(f"FAIL {name}: exit {result[0]} / {other_result[0]}, "
                  f"files {sorted(result[2])} / {sorted(other_result[2])}")
            print(f"  this:  {result[1][:300]!r}")
            print(f"  other: {other_result[1][:300]!r}")
    codes = sorted({result[0] for result in mine})
    print(f"{len(named)} commands (exit codes {codes}), {failed} differences")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
