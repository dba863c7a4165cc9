"""Compare every sampler output of this checkout with another one.

    PYTHONPATH=src python tests/compare_samplers.py OTHER_CHECKOUT

Runs ``chain des``, ``chain mc`` and ``simulate --trace-hash`` over a
seeded grid, once with each checkout's ``src`` in a fresh interpreter:
n 0..3, p_g {0.5, 0.9}, p_s {0.5, 1.0}, t_coh {inf, 40}, cut-off
none/5/12, delay 0/1/3 (``mc`` has no delay, so it runs the delay-0
cells), and 0 or 1 distillation rounds, with w0 0.95 and 100 samples a
cell.  Cells with a cut-off and more than four protocol units, or four
units at p_g 0.5 where tau is 5 or the delay positive, are left out: a
few samples there take minutes on either tree.  A few multi-cell grids
of every engine but ``track`` (``GRIDS``) check that the rows of one
command come out in grid order; three of them run the samplers at p_g 1,
where an elementary draw takes no uniform, and p_s {0.5, 1.0}.  Every command must give the same exit
code and byte-identical output.  Prints each differing command and a
summary line, and exits 1 on any difference.

``run`` is the one in-process runner of both parity scripts;
``compare_bounds.py`` imports it.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from qnd.cli import main
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append((code, out.getvalue()))
json.dump(results, sys.stdout)
"""
SAMPLES = 100
SAMPLED = ["--n", "0,1,2", "--pg", "0.5,0.9", "--ps", "0.5,1.0", "--tcoh",
           "inf,40", "--cutoff", "5,12", "--w0", "0.95", "--samples",
           str(SAMPLES), "--seed", "7"]
CERTAIN = ["--n", "0,1,2,3", "--pg", "1.0", "--ps", "0.5,1.0", "--tcoh",
           "inf,40", "--cutoff", "5,12", "--w0", "0.95", "--samples",
           str(SAMPLES), "--seed", "7"]
GRIDS = {
    "chain mc grid": ["chain", "mc", *SAMPLED],
    "chain des grid": ["chain", "des", *SAMPLED, "--delay", "1"],
    "simulate grid": ["simulate", *SAMPLED, "--delay", "1", "--trace-hash"],
    # At p_g 1 no elementary draw takes a uniform, and at p_s 1 no swap.
    "chain mc p_g=1 grid": ["chain", "mc", *CERTAIN],
    "chain des p_g=1 grid": ["chain", "des", *CERTAIN, "--delay", "1"],
    "simulate p_g=1 grid": ["simulate", *CERTAIN, "--delay", "1",
                            "--trace-hash"],
    # p_g 0.1 and 0.5 survive a double reciprocal bit for bit; 0.9 does
    # not, so a rounding change in the level recurrence shows.
    "chain analytic grid": ["chain", "analytic", "--n", "0,1,2,3,10",
                            "--pg", "0.1,0.5,0.9", "--ps", "0.5,1.0",
                            "--tcoh", "inf,40", "--w0", "0.95"],
    # n = 3 is left out: a commit that leaves OpenBLAS its default threads
    # prints host-dependent last digits there.
    "chain markov grid": ["chain", "markov", "--n", "0,1,2", "--pg",
                          "0.1,0.5", "--ps", "0.5,1.0"],
    "chain markov one-step grid": ["chain", "markov", "--n", "1,2", "--pg",
                                   "0.1,0.5", "--ps", "0.5,1.0",
                                   "--swap-time", "one-step"],
}


def slow(units, p_g, tau, delay):
    """Whether one sample of the cell may take minutes."""
    if tau is None:
        return False
    return units > 4 or (units == 4 and p_g == 0.5
                         and (tau == 5 or delay > 0))


def commands():
    """(name, argv) of every compared command."""
    grid = itertools.product(range(4), (0.5, 0.9), (0.5, 1.0),
                             ("inf", "40"), (None, 5, 12), (0, 1, 3),
                             (0, 1))
    for seed, (n, p_g, p_s, t_coh, tau, delay, rounds) in enumerate(grid):
        if slow(n * (rounds + 1), p_g, tau, delay):
            continue
        cell = ["--n", str(n), "--pg", str(p_g), "--ps", str(p_s),
                "--tcoh", t_coh, "--w0", "0.95",
                "--distill-rounds", str(rounds),
                "--samples", str(SAMPLES), "--seed", str(seed)]
        if tau is not None:
            cell += ["--cutoff", str(tau)]
        name = (f"n={n} p_g={p_g} p_s={p_s} t_coh={t_coh} tau={tau} "
                f"delay={delay} rounds={rounds} seed={seed}")
        if delay == 0:
            yield f"chain mc {name}", ["chain", "mc", *cell]
        timed = [*cell, "--delay", str(delay)]
        yield f"chain des {name}", ["chain", "des", *timed]
        yield f"simulate {name}", ["simulate", *timed, "--trace-hash"]
    yield from GRIDS.items()


def run(checkout, argvs):
    """(exit code, stdout) of each command under ``checkout``."""
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(Path(checkout) / "src")],
        input=json.dumps(argvs), capture_output=True, text=True,
        check=True)
    return [tuple(result) for result in json.loads(done.stdout)]


def main(other):
    named = list(commands())
    argvs = [argv for _, argv in named]
    mine, theirs = run(HERE, argvs), run(other, argvs)
    failed = 0
    for (name, _), result, other_result in zip(named, mine, theirs):
        if result != other_result:
            failed += 1
            print(f"FAIL {name}: exit {result[0]} / {other_result[0]}")
            print(f"  this:  {result[1]!r}")
            print(f"  other: {other_result[1]!r}")
    print(f"{len(named)} commands, {failed} differences")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
