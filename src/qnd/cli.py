"""Command-line front end tying the bound computations and the five chain
engines together.

Subcommands
-----------
``bounds``    capacity sandwiches for a network file (bipartite,
              multi-pair, multipartite tasks);
``chain``     waiting-time statistics of a repeater chain on a parameter
              grid, under an explicitly chosen engine: ``analytic``,
              ``track``, ``markov``, ``mc``, or ``des``;
``compare``   per-cell relative errors of the analytical approximations
              against the exact tracked mean, plus optional PMF exports;
``simulate``  batches on the discrete-event engine, with optional
              per-swap communication delay and event-trace hashing.

All three grid commands run one engine's cell function over the grid:
``compare`` runs the ``track`` engine and ``simulate`` the ``des`` engine,
so their numbers are those of ``chain track`` and ``chain des``.  Each
engine has one execution mode.  Only ``track`` cells, whose FFTs and array
sums release the GIL, run on a thread pool of one thread per usable core
(at most 8); every other engine runs its cells in grid order on the calling
thread.  Either way the rows come out in grid order.

Engines are never substituted silently.  The engine table ``_ENGINES`` is
the one tier of checks: before any cell runs, ``chain`` rejects every given
option that the chosen engine does not read (``chain --help`` names the
engines that read each option) with a feature-mismatch error, and no cell
raises one.  Outputs are plain CSV or JSON with a fixed column order and
locale-independent number formatting; identical configurations and seeds
produce byte-identical files.  Exit codes: 0 success, 2 input error, 3
solver or engine error, 64 usage error.
"""

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
import time
import typing

from . import capbounds, chainformulas, deskernel, disttrack, markovchain
from . import lpcore, montecarlo, netmodel

__all__ = ["main", "UsageError", "FeatureMismatchError"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ENGINE = 3
EXIT_USAGE = 64

_CHAIN_COLUMNS = ("engine", "n", "p_g", "p_s", "t_coh", "tau",
                  "mean_t", "stddev_t", "mean_w", "captured_mass",
                  "stderr_t")

_COMPARE_COLUMNS = ("n", "p_g", "p_s", "exact_mean",
                    "rel_err_mean_only", "rel_err_three_over_two",
                    "rel_err_geometric_level", "rel_err_det_swap")


class UsageError(Exception):
    pass


class FeatureMismatchError(Exception):
    """The selected engine does not support a requested protocol feature."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value):
    """Locale-independent cell rendering; floats use shortest round-trip."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def _json(payload):
    """Strict JSON (RFC 8259) text of a dict or list of dicts: an infinity
    is written as CSV writes it, the string "inf", and a NaN raises
    ValueError."""
    def strict(value):
        if isinstance(value, float) and math.isinf(value):
            return _fmt(value)
        if isinstance(value, dict):
            return {k: strict(v) for k, v in value.items()}
        if isinstance(value, list):
            return [strict(v) for v in value]
        return value
    return json.dumps(strict(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _write_table(columns, rows, fmt, out_path):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        text = buf.getvalue()
    else:
        text = _json([{c: row.get(c) for c in columns} for row in rows])
    _emit(text, out_path)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(text):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"not a number list: {text!r}") from exc


def _int_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"not an integer list: {text!r}") from exc


def _seed(text):
    """A sample-stream seed: an integer that is a Philox key word."""
    try:
        seed = int(text)
    except ValueError as exc:
        raise UsageError(f"not an integer: {text!r}") from exc
    if not 0 <= seed < 2 ** 64:
        raise UsageError(f"--seed must be in [0, 2**64): {text}")
    return seed


# --- bounds ----------------------------------------------------------------

def _add_bounds_parser(sub):
    p = sub.add_parser("bounds", description="Capacity bound sandwiches "
                       "for a JSON network file.")
    p.add_argument("network", help="path of the network file")
    task = p.add_mutually_exclusive_group(required=True)
    task.add_argument("--bipartite", nargs=2, metavar=("A", "B"))
    task.add_argument("--multipair", action="store_true",
                      help="use the network's commodity list")
    task.add_argument("--multipartite", action="store_true",
                      help="use the network's user set")
    # --objective and --slack-factor have no default here, so that one
    # given off --multipair can be told apart and rejected.
    p.add_argument("--objective", choices=("total", "worst"),
                   help="--multipair only (default: total)")
    p.add_argument("--unit", choices=[u.value for u in capbounds.UsageUnit],
                   default=capbounds.UsageUnit.PER_NETWORK_USE.value)
    p.add_argument("--esq-upper", action="store_true",
                   help="weight lossy channels with the squashed bound "
                        "on the upper side")
    p.add_argument("--slack-factor", type=float,
                   help="--multipair only (default: 1.0)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_bounds)


def _cmd_bounds(args):
    if not args.multipair:
        given = [flag for flag, value in (("--objective", args.objective),
                                          ("--slack-factor",
                                           args.slack_factor))
                 if value is not None]
        if given:
            raise UsageError(f"{' and '.join(given)} apply only to "
                             f"--multipair")
    if args.slack_factor is not None and not (
            1.0 <= args.slack_factor < math.inf):
        raise UsageError(f"--slack-factor must be finite and >= 1, got "
                         f"{args.slack_factor!r}")
    with open(args.network, encoding="utf-8") as fh:
        net = netmodel.parse_network(fh.read())
    unit = capbounds.UsageUnit(args.unit)
    if args.bipartite:
        a, b = args.bipartite
        report = capbounds.bipartite_bounds(
            net, a, b, unit, esq_lossy_upper=args.esq_upper)
        task = f"bipartite {a}-{b}"
    elif args.multipair:
        if not net.commodities:
            raise netmodel.NetworkValidationError(
                "the network declares no commodities")
        objective = args.objective or "total"
        report = capbounds.multipair_bounds(
            net, net.commodities, objective=objective, unit=unit,
            slack_factor=(1.0 if args.slack_factor is None
                          else args.slack_factor),
            esq_lossy_upper=args.esq_upper)
        task = f"multipair/{objective} k={len(net.commodities)}"
    else:
        report = capbounds.multipartite_bounds(
            net, unit=unit, esq_lossy_upper=args.esq_upper)
        task = f"multipartite |A|={len(net.users)}"
    row = {
        "task": task,
        "unit": report.unit.value,
        "lower": report.lower,
        "upper": report.upper,
        "q_opt": (None if report.q_opt is None
                  else ";".join(repr(q) for q in report.q_opt)),
        "slack_note": report.slack_note,
    }
    if args.format == "json":
        payload = dict(row)
        payload["q_opt"] = (None if report.q_opt is None
                            else list(report.q_opt))
        _emit(_json(payload), args.out)
    else:
        _write_table(("task", "unit", "lower", "upper", "q_opt",
                      "slack_note"), [row], "csv", args.out)
    return EXIT_OK


# --- chain -----------------------------------------------------------------

# The options of the grid commands beyond --n, --pg, --ps, --format and
# --out: the default as typed on the command line, argparse keywords, help.
# ``chain`` registers them without a default, so that a given option can be
# told apart, and fills the defaults in after its engine check.
_GRID_OPTIONS = {
    "--tcoh": ("inf", {"type": _float_list},
               "memory coherence times (comma list; 'inf' disables decay)"),
    "--cutoff": (None, {"type": _int_list},
                 "cut-off thresholds (comma list; none disables them)"),
    "--w0": ("1.0", {"type": float}, "Werner parameter of a fresh link"),
    "--trunc": (None, {"type": int}, "output length of the tracker "
                "(none: the certified horizon)"),
    "--distill-rounds": ("0", {"type": int},
                         "distillation rounds before each swap level"),
    "--swap-time": ("zero-step",
                    {"choices": [m.value for m in markovchain.SwapTimeMode]},
                    "swap timing convention"),
    "--delay": ("0", {"type": int},
                "classical-communication delay per swap, at most --cutoff"),
    "--samples": ("10000", {"type": int}, "samples per grid cell"),
    "--seed": ("0", {"type": _seed}, "seed of the sample streams"),
    "--export-pmf": (None, {}, "also write the full PMF as CSV to this path"),
}


def _add_grid_arguments(p, flags, chain=False):
    """The grid, the ``_GRID_OPTIONS`` named in ``flags`` and the output
    options; ``chain`` registers flags without default, naming readers."""
    p.add_argument("--n", type=_int_list, required=True,
                   help="nesting levels (comma list)")
    p.add_argument("--pg", type=_float_list, required=True,
                   help="generation success probabilities (comma list)")
    p.add_argument("--ps", type=_float_list, default=[1.0],
                   help="swap success probabilities (comma list)")
    for flag in flags:
        default, kwargs, text = _GRID_OPTIONS[flag]
        if chain:
            text += f"; for {_readers(flag)} (default {default or 'none'})"
            default = None
        p.add_argument(flag, default=default, help=text, **kwargs)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")


def _grid_cells(args):
    cutoffs = args.cutoff if args.cutoff is not None else [None]
    return [chainformulas.ChainParams(n=n, p_g=pg, p_s=ps, t_coh=tcoh, tau=tau)
            for n, pg, ps, tcoh, tau in itertools.product(
                args.n, args.pg, args.ps, args.tcoh, cutoffs)]


def _add_chain_parser(sub):
    p = sub.add_parser(
        "chain", description="Waiting-time statistics of a repeater chain "
        "under one explicitly chosen engine.  The analytic engine's mean_t "
        "is exact at one level and, with --ps 1, at every depth; its "
        "mean_w is exact at one level only and a level-by-level estimate "
        "beyond (--n 4 --pg 0.5 --ps 1 --tcoh 40 --w0 0.95 gives 0.2140, "
        "track 0.2538).  A track row is summarised from the last unit's "
        "renewal law, and its captured_mass is the mass that law implies; "
        "with --trunc or --export-pmf it summarises the tracked PMF.")
    p.add_argument("engine", choices=_ENGINES)
    _add_grid_arguments(p, _GRID_OPTIONS, chain=True)
    p.add_argument("--timings", action="store_true",
                   help="append a wall-time column (not byte-reproducible)")
    p.set_defaults(run=_cmd_chain)


def _protocol(params, args):
    if args.distill_rounds:
        return disttrack.ChainProtocol.with_distillation(
            params.n, args.distill_rounds, w0=args.w0)
    return disttrack.ChainProtocol.swap_only(params.n, w0=args.w0)


def _analytic_cell(params, args):
    w0 = _protocol(params, args).w0
    if params.p_s == 1.0:
        mean = chainformulas.det_swap_mean(params.segments, params.p_g)
    else:
        mean = chainformulas.geometric_level_mean(params)
    # Level-by-level quality estimate: each level squares the parameter
    # and the stored side decays by the level's mean factor.
    w = w0
    level_mean = 1.0 / params.p_g
    x = params.decay_per_step
    for _ in range(params.n):
        gamma = chainformulas.decay_factor(1.0 / level_mean, x)
        w = w * w * gamma
        if x < 1.0:  # a perfect memory needs no level mean
            level_mean = chainformulas.geometric_level_mean(
                chainformulas.ChainParams(
                    n=1, p_g=min(1.0, 1.0 / level_mean), p_s=params.p_s))
    return {"mean_t": mean, "stddev_t": None, "mean_w": w,
            "captured_mass": None, "stderr_t": None}


def _track_cell(params, args):
    """The tracked chain's row: summarised from the last unit's renewal law
    unless a PMF option (--trunc, --export-pmf, --pmf-out) needs the whole
    PMF, which the row then summarises."""
    protocol = _protocol(params, args)
    if args.trunc is None and not args.export_pmf and not getattr(
            args, "pmf_out", None):
        stats = disttrack.chain_statistics(params, protocol)
        return {"mean_t": stats["mean"], "stddev_t": stats["stddev"],
                "mean_w": stats["mean_w"],
                "captured_mass": stats["captured_mass"], "stderr_t": None}
    dist = disttrack.chain_distribution(params, protocol, t_trunc=args.trunc)
    return {"mean_t": dist.mean(), "stddev_t": dist.stddev(),
            "mean_w": dist.mean_werner(),
            "captured_mass": dist.captured_mass, "stderr_t": None,
            "_dist": dist}


def _markov_cell(params, args):
    chain = markovchain.build_chain(
        params, markovchain.SwapTimeMode(args.swap_time))
    stats = markovchain.absorption_stats(chain)
    row = {"mean_t": stats["mean"],
           "stddev_t": math.sqrt(stats["variance"]),
           "mean_w": None, "captured_mass": None, "stderr_t": None}
    if args.export_pmf:
        row["_dist"] = markovchain.waiting_pmf(chain)
    return row


def _sampled_cell(params, args):
    """A seeded Monte Carlo (``mc``) or discrete-event (``des``) batch."""
    protocol = _protocol(params, args)
    if args.engine == "des":
        batch = deskernel.simulate_batch(params, protocol,
                                         n_samples=args.samples,
                                         seed=args.seed, delay=args.delay)
    else:
        batch = montecarlo.run_batch(params, protocol,
                                     n_samples=args.samples, seed=args.seed)
    stddev = (None if batch.stderr_t is None
              else batch.stderr_t * math.sqrt(batch.n_samples))
    return {"mean_t": batch.mean_t, "stddev_t": stddev,
            "mean_w": batch.mean_w, "captured_mass": None,
            "stderr_t": batch.stderr_t, "stderr_w": batch.stderr_w,
            "n_samples": batch.n_samples, "seed": batch.seed,
            "delay": args.delay}


class _Engine(typing.NamedTuple):
    run: typing.Callable
    reads: set  # the grid options the engine reads
    pooled: bool = False  # whether its cells run on the cell pool


_SAMPLED = {"--tcoh", "--cutoff", "--w0", "--distill-rounds", "--samples",
            "--seed"}

# The one place that says which engine reads which option, and which
# engine's cells run on the cell pool: only the tracker's, whose FFTs and
# array sums release the GIL.  The pool slows every other engine's grid.
_ENGINES = {
    "analytic": _Engine(_analytic_cell, {"--tcoh", "--w0"}),
    "track": _Engine(_track_cell, {"--tcoh", "--cutoff", "--w0", "--trunc",
                                   "--distill-rounds", "--export-pmf"},
                     pooled=True),
    "markov": _Engine(_markov_cell, {"--swap-time", "--export-pmf"}),
    "mc": _Engine(_sampled_cell, _SAMPLED),
    "des": _Engine(_sampled_cell, _SAMPLED | {"--delay"}),
}


def _readers(flag):
    """The engines that read ``flag``: 'the mc or des engine'."""
    readers = [name for name, e in _ENGINES.items() if flag in e.reads]
    return f"the {' or '.join(readers)} engine"


def _check_engine_options(args):
    """Reject given options the engine does not read; default the others.
    An option the command does not register counts as not given."""
    engine = _ENGINES[args.engine]
    dest = {flag: flag[2:].replace("-", "_") for flag in _GRID_OPTIONS}
    given = {flag for flag in dest
             if getattr(args, dest[flag], None) is not None}
    unread = [flag for flag in dest if flag in given - engine.reads]
    if unread:
        raise FeatureMismatchError(
            f"the {args.engine} engine does not read every given option: "
            + "; ".join(f"{flag} needs {_readers(flag)}" for flag in unread))
    for flag, (default, kwargs, _) in _GRID_OPTIONS.items():
        if flag not in given:
            setattr(args, dest[flag], None if default is None
                    else kwargs.get("type", str)(default))


def _grid_rows(args):
    """Run the engine ``args.engine`` on every cell of the grid: the cells,
    and per cell, in grid order, a row of the engine name, the params and
    the engine cell's output with its ``wall_ms``.  A pooled engine's cells
    run on one thread per usable core (the CPU affinity), at most 8."""
    _check_engine_options(args)
    cells = _grid_cells(args)
    engine = _ENGINES[args.engine]

    def run(params):
        t0 = time.perf_counter()
        row = engine.run(params, args)
        row["wall_ms"] = 1e3 * (time.perf_counter() - t0)
        return row

    workers = 1
    if engine.pooled:
        cores = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        workers = min(8, cores, len(cells))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run, cells))
    else:
        results = [run(params) for params in cells]
    return cells, [{"engine": args.engine, **dataclasses.asdict(params),
                    **row} for params, row in zip(cells, results)]


def _cmd_chain(args):
    cells, rows = _grid_rows(args)
    columns = _CHAIN_COLUMNS + (("wall_ms",) if args.timings else ())
    _write_table(columns, rows, args.format, args.out)

    if args.export_pmf:
        _emit("".join(f"# n={params.n} p_g={params.p_g!r} "
                      f"p_s={params.p_s!r} t_coh={params.t_coh!r} "
                      f"tau={params.tau!r}\n"
                      + disttrack.distribution_csv(row["_dist"])
                      for params, row in zip(cells, rows)),
              args.export_pmf)
    return EXIT_OK


# --- compare ----------------------------------------------------------------

def _add_compare_parser(sub):
    p = sub.add_parser("compare", description="Relative errors of the "
                       "analytical approximations against the exact "
                       "tracked mean, from the last unit's renewal law; "
                       "with --trunc or --pmf-out, from the tracked PMF.")
    _add_grid_arguments(p, ["--trunc"])
    p.set_defaults(engine="track", run=_cmd_compare)
    p.add_argument("--pmf-out",
                   help="directory for per-cell PMF overlays (exact vs "
                        "moment-matched geometric)")


def _cmd_compare(args):
    cells, rows = _grid_rows(args)
    for params, row in zip(cells, rows):
        exact = row["exact_mean"] = row["mean_t"]
        approx = {
            "rel_err_mean_only": chainformulas.mean_only(params),
            "rel_err_three_over_two": chainformulas.three_over_two(params),
            "rel_err_geometric_level":
                chainformulas.geometric_level_mean(params),
            "rel_err_det_swap":
                chainformulas.det_swap_mean(params.segments, params.p_g),
        }
        for key, value in approx.items():
            row[key] = abs(value - exact) / exact
    _write_table(_COMPARE_COLUMNS, rows, args.format, args.out)

    if args.pmf_out:
        os.makedirs(args.pmf_out, exist_ok=True)
        for params, row in zip(cells, rows):
            dist = row["_dist"]
            # Geometric with the same mean, for shape overlays.
            p_match = 1.0 / row["exact_mean"]
            geo = disttrack.geometric_pmf(p_match, dist.t_trunc)
            # repr keeps distinct cells apart; short values read as
            # before (pg0.1).
            name = (f"pmf_n{params.n}_pg{params.p_g!r}"
                    f"_ps{params.p_s!r}.csv")
            lines = ["t,pmf_exact,pmf_geometric"]
            for t in range(1, dist.t_trunc + 1):
                lines.append(f"{t},{float(dist.pmf[t])!r},"
                             f"{float(geo.pmf[t])!r}")
            _emit("\n".join(lines) + "\n", os.path.join(args.pmf_out, name))
    return EXIT_OK


# --- simulate ----------------------------------------------------------------

def _add_simulate_parser(sub):
    p = sub.add_parser("simulate", description="Discrete-event batches of "
                       "the chain protocol.")
    _add_grid_arguments(p, ["--tcoh", "--cutoff", "--w0", "--samples",
                            "--seed", "--distill-rounds", "--delay"])
    p.set_defaults(engine="des", samples=1000, run=_cmd_simulate)
    p.add_argument("--trace-hash", action="store_true",
                   help="include the event-trace hash of sample 0")


def _cmd_simulate(args):
    cells, rows = _grid_rows(args)
    columns = ("n", "p_g", "p_s", "t_coh", "tau", "delay", "n_samples",
               "seed", "mean_t", "stderr_t", "mean_w", "stderr_w")
    if args.trace_hash:
        columns = columns + ("trace_sha256",)
        for params, row in zip(cells, rows):
            sim = deskernel.ChainSimulation(
                params, _protocol(params, args), seed=args.seed,
                delay=args.delay, trace=True)
            sim.run()
            row["trace_sha256"] = sim.trace_hash()
    _write_table(columns, rows, args.format, args.out)
    return EXIT_OK


# --- entry point -------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built on the first call, not at import, and
    shared by every later ``main`` call in the process."""
    parser = _Parser(prog="qnd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_bounds_parser(sub)
    _add_chain_parser(sub)
    _add_compare_parser(sub)
    _add_simulate_parser(sub)
    return parser


# UnicodeDecodeError, a network file that is not UTF-8, is a ValueError and
# must be caught here before _ENGINE_ERRORS sees it.
_INPUT_ERRORS = (netmodel.NetworkParseError, netmodel.NetworkValidationError,
                 FileNotFoundError, IsADirectoryError, PermissionError,
                 UnicodeDecodeError)
# AssertionError covers every invariant check that raises explicitly, such
# as flows.FlowVerificationError, so a failed check exits 3.
_ENGINE_ERRORS = (FeatureMismatchError, lpcore.LPNumericError,
                  AssertionError, disttrack.HorizonError,
                  markovchain.StateLimitError, markovchain.AbsorptionError,
                  OverflowError, ValueError)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _ENGINE_ERRORS as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
