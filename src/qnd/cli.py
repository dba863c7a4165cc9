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

Engines are never substituted silently: a request the engine cannot honor
(distillation on the Markov engine, cut-offs in the closed forms with
probabilistic swapping) fails with a feature-mismatch error.  Outputs are
plain CSV or JSON with a fixed column order and locale-independent number
formatting; identical configurations and seeds produce byte-identical
files.  Exit codes: 0 success, 2 input error, 3 solver or engine error,
64 usage error.
"""

import argparse
import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

from . import capbounds, chainformulas, deskernel, disttrack, markovchain
from . import lpcore, montecarlo, netmodel
from .flows import SizeLimitError

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ENGINE = 3
EXIT_USAGE = 64

_ENGINES = ("analytic", "track", "markov", "mc", "des")

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


def _write_table(columns, rows, fmt, out_path):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        text = buf.getvalue()
    else:
        payload = [{c: row.get(c) for c in columns} for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, out_path)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(text):
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"not a number list: {text!r}") from exc


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"not an integer list: {text!r}") from exc


def _workers():
    raw = os.environ.get("QND_THREADS", "")
    if raw:
        try:
            cap = max(1, int(raw))
        except ValueError:
            raise UsageError(f"QND_THREADS must be an integer, got {raw!r}")
    else:
        cap = min(8, os.cpu_count() or 1)
    return cap


def _map_cells(fn, cells):
    """Run one function per grid cell, preserving grid order."""
    workers = min(_workers(), max(1, len(cells)))
    if workers == 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


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
    p.add_argument("--objective", choices=("total", "worst"),
                   default="total")
    p.add_argument("--unit", choices=[u.value for u in capbounds.UsageUnit],
                   default=capbounds.UsageUnit.PER_NETWORK_USE.value)
    p.add_argument("--esq-upper", action="store_true",
                   help="weight lossy channels with the squashed bound "
                        "on the upper side")
    p.add_argument("--slack-factor", type=float, default=1.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")


def _cmd_bounds(args):
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
        report = capbounds.multipair_bounds(
            net, net.commodities, objective=args.objective, unit=unit,
            slack_factor=args.slack_factor,
            esq_lossy_upper=args.esq_upper)
        task = f"multipair/{args.objective} k={len(net.commodities)}"
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
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_table(("task", "unit", "lower", "upper", "q_opt",
                      "slack_note"), [row], "csv", args.out)
    return EXIT_OK


# --- chain -----------------------------------------------------------------

def _add_grid_arguments(p, noisy=True, trunc=True, samples=None):
    """The parameter grid and output options of a chain command.

    ``noisy`` adds --tcoh, --cutoff and --w0 (without them every cell has
    no decay and no cut-off), ``trunc`` the exact engine's --trunc, and an
    integer ``samples`` the sampler options with that default count.
    """
    p.add_argument("--n", type=_int_list, required=True,
                   help="nesting levels (comma list)")
    p.add_argument("--pg", type=_float_list, required=True,
                   help="generation success probabilities (comma list)")
    p.add_argument("--ps", type=_float_list, default=[1.0],
                   help="swap success probabilities (comma list)")
    if noisy:
        p.add_argument("--tcoh", type=_float_list, default=[math.inf],
                       help="memory coherence times; 'inf' disables decay")
        p.add_argument("--cutoff", type=_int_list, default=None,
                       help="cut-off thresholds (comma list; omit to "
                            "disable)")
        p.add_argument("--w0", type=float, default=1.0,
                       help="Werner parameter of a fresh link")
    else:
        p.set_defaults(tcoh=[math.inf], cutoff=None)
    if trunc:
        p.add_argument("--trunc", type=int, default=None,
                       help="output length of the exact engine, also a "
                            "cap on its level horizons (default: the "
                            "certified horizon)")
    if samples is not None:
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")


def _grid_cells(args):
    cutoffs = args.cutoff if args.cutoff is not None else [None]
    cells = []
    for n in args.n:
        for pg in args.pg:
            for ps in args.ps:
                for tcoh in args.tcoh:
                    for tau in cutoffs:
                        cells.append(chainformulas.ChainParams(
                            n=n, p_g=pg, p_s=ps, t_coh=tcoh, tau=tau))
    return cells


def _add_chain_parser(sub):
    p = sub.add_parser("chain", description="Waiting-time statistics of a "
                       "repeater chain under one explicitly chosen engine.")
    p.add_argument("engine", choices=_ENGINES)
    _add_grid_arguments(p, samples=10000)
    p.add_argument("--distill-rounds", type=int, default=0,
                   help="distillation rounds before each swap level")
    p.add_argument("--swap-time", choices=[m.value for m in
                                           markovchain.SwapTimeMode],
                   default=markovchain.SwapTimeMode.ZERO_STEP.value,
                   help="markov engine: swap timing convention")
    p.add_argument("--delay", type=int, default=0,
                   help="des engine: classical-communication delay per swap")
    p.add_argument("--export-pmf",
                   help="track/markov: also write the full PMF as CSV here")
    p.add_argument("--timings", action="store_true",
                   help="append a wall-time column (not byte-reproducible)")


def _protocol(params, args):
    if args.distill_rounds:
        return disttrack.ChainProtocol.with_distillation(
            params.n, args.distill_rounds, w0=args.w0)
    return disttrack.ChainProtocol.swap_only(params.n, w0=args.w0)


def _analytic_cell(params, args):
    if args.distill_rounds:
        raise FeatureMismatchError(
            "the analytic engine has no closed forms for distillation")
    if params.tau is not None:
        if params.p_s < 1.0:
            raise FeatureMismatchError(
                "the analytic engine supports cut-offs only with "
                "deterministic swapping (p_s = 1)")
        mean = chainformulas.det_swap_mean_cutoff(
            params.segments, params.p_g, params.tau)
        return {"mean_t": mean, "stddev_t": None, "mean_w": None,
                "captured_mass": None, "stderr_t": None}
    mean = chainformulas.geometric_level_mean(params)
    # Level-by-level quality estimate: each level squares the parameter
    # and the stored side decays by the level's mean factor.
    w = args.w0
    level_mean = 1.0 / params.p_g
    x = params.decay_per_step
    for _ in range(params.n):
        gamma = chainformulas.decay_factor(1.0 / level_mean, x)
        w = w * w * gamma
        level_mean = chainformulas.geometric_level_mean(
            chainformulas.ChainParams(n=1, p_g=min(1.0, 1.0 / level_mean),
                                      p_s=params.p_s))
    return {"mean_t": mean, "stddev_t": None, "mean_w": w,
            "captured_mass": None, "stderr_t": None}


def _track_cell(params, args):
    dist = disttrack.chain_distribution(params, _protocol(params, args),
                                        t_trunc=args.trunc)
    return {"mean_t": dist.mean(), "stddev_t": dist.stddev(),
            "mean_w": dist.mean_werner(),
            "captured_mass": dist.captured_mass, "stderr_t": None,
            "_dist": dist}


def _markov_cell(params, args):
    if args.distill_rounds:
        raise FeatureMismatchError(
            "the markov engine covers swap-only protocols "
            "(no distillation)")
    if params.tau is not None:
        raise FeatureMismatchError(
            "the markov engine covers swap-only protocols "
            "(no cut-off)")
    chain = markovchain.build_chain(
        params, markovchain.SwapTimeMode(args.swap_time))
    stats = markovchain.absorption_stats(chain)
    row = {"mean_t": stats["mean"],
           "stddev_t": math.sqrt(stats["variance"]),
           "mean_w": None, "captured_mass": None, "stderr_t": None}
    if args.export_pmf and args.trunc:
        row["_dist"] = markovchain.waiting_pmf(chain, args.trunc)
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
            "stderr_t": batch.stderr_t}


_CELL_RUNNERS = {
    "analytic": _analytic_cell,
    "track": _track_cell,
    "markov": _markov_cell,
    "mc": _sampled_cell,
    "des": _sampled_cell,
}


def _cmd_chain(args):
    if args.delay and args.engine != "des":
        raise FeatureMismatchError(
            f"--delay needs the des engine, not {args.engine}")
    if (args.swap_time != markovchain.SwapTimeMode.ZERO_STEP.value
            and args.engine != "markov"):
        raise FeatureMismatchError(
            f"--swap-time {args.swap_time} needs the markov engine, "
            f"not {args.engine}")
    if args.export_pmf and not (args.engine == "track"
                                or (args.engine == "markov" and args.trunc)):
        raise FeatureMismatchError(
            "--export-pmf needs the track engine (or markov with --trunc)")
    cells = _grid_cells(args)
    runner = _CELL_RUNNERS[args.engine]

    def run(params):
        t0 = time.perf_counter()
        row = runner(params, args)
        row["wall_ms"] = 1e3 * (time.perf_counter() - t0)
        return row

    results = _map_cells(run, cells)
    columns = _CHAIN_COLUMNS + (("wall_ms",) if args.timings else ())
    rows = [{"engine": args.engine, **dataclasses.asdict(params), **row}
            for params, row in zip(cells, results)]
    _write_table(columns, rows, args.format, args.out)

    if args.export_pmf:
        pieces = []
        for params, row in zip(cells, results):
            pieces.append(f"# n={params.n} p_g={params.p_g!r} "
                          f"p_s={params.p_s!r} t_coh={params.t_coh!r} "
                          f"tau={params.tau!r}\n")
            pieces.append(disttrack.distribution_csv(row["_dist"]))
        with open(args.export_pmf, "w", newline="") as fh:
            fh.write("".join(pieces))
    return EXIT_OK


# --- compare ----------------------------------------------------------------

def _add_compare_parser(sub):
    p = sub.add_parser("compare", description="Relative errors of the "
                       "analytical approximations against the exact "
                       "tracked mean.")
    _add_grid_arguments(p, noisy=False)
    p.add_argument("--pmf-out",
                   help="directory for per-cell PMF overlays (exact vs "
                        "moment-matched geometric)")


def _cmd_compare(args):
    cells = _grid_cells(args)

    def run(params):
        dist = disttrack.chain_distribution(params, t_trunc=args.trunc)
        exact = dist.mean()
        approx = {
            "rel_err_mean_only": chainformulas.mean_only(params),
            "rel_err_three_over_two": chainformulas.three_over_two(params),
            "rel_err_geometric_level":
                chainformulas.geometric_level_mean(params),
            "rel_err_det_swap":
                chainformulas.det_swap_mean(params.segments, params.p_g),
        }
        row = {"n": params.n, "p_g": params.p_g, "p_s": params.p_s,
               "exact_mean": exact}
        for key, value in approx.items():
            row[key] = abs(value - exact) / exact
        return row, dist

    results = _map_cells(run, cells)
    rows = [row for row, _ in results]
    _write_table(_COMPARE_COLUMNS, rows, args.format, args.out)

    if args.pmf_out:
        os.makedirs(args.pmf_out, exist_ok=True)
        for params, (row, dist) in zip(cells, results):
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
            with open(os.path.join(args.pmf_out, name), "w",
                      newline="") as fh:
                fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# --- simulate ----------------------------------------------------------------

def _add_simulate_parser(sub):
    p = sub.add_parser("simulate", description="Discrete-event batches of "
                       "the chain protocol.")
    _add_grid_arguments(p, trunc=False, samples=1000)
    p.add_argument("--distill-rounds", type=int, default=0)
    p.add_argument("--delay", type=int, default=0,
                   help="classical-communication delay per swap")
    p.add_argument("--trace-hash", action="store_true",
                   help="include the event-trace hash of sample 0")


def _cmd_simulate(args):
    cells = _grid_cells(args)

    def run(params):
        protocol = _protocol(params, args)
        batch = deskernel.simulate_batch(
            params, protocol, n_samples=args.samples, seed=args.seed,
            delay=args.delay)
        row = {
            "n": params.n, "p_g": params.p_g, "p_s": params.p_s,
            "t_coh": params.t_coh, "tau": params.tau,
            "delay": args.delay, "n_samples": batch.n_samples,
            "seed": args.seed,
            "mean_t": batch.mean_t, "stderr_t": batch.stderr_t,
            "mean_w": batch.mean_w, "stderr_w": batch.stderr_w,
        }
        if args.trace_hash:
            sim = deskernel.ChainSimulation(
                params, protocol, seed=args.seed,
                delay=args.delay, trace=True)
            sim.run()
            row["trace_sha256"] = sim.trace_hash()
        return row

    rows = _map_cells(run, cells)
    columns = ("n", "p_g", "p_s", "t_coh", "tau", "delay", "n_samples",
               "seed", "mean_t", "stderr_t", "mean_w", "stderr_w")
    if args.trace_hash:
        columns = columns + ("trace_sha256",)
    _write_table(columns, rows, args.format, args.out)
    return EXIT_OK


# --- entry point -------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="qnd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_bounds_parser(sub)
    _add_chain_parser(sub)
    _add_compare_parser(sub)
    _add_simulate_parser(sub)
    return parser


_COMMANDS = {
    "bounds": _cmd_bounds,
    "chain": _cmd_chain,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
}

_INPUT_ERRORS = (netmodel.NetworkParseError, netmodel.NetworkValidationError,
                 FileNotFoundError, IsADirectoryError, PermissionError)
# AssertionError covers every invariant check that raises explicitly, such
# as flows.FlowVerificationError, so a failed check exits 3.
_ENGINE_ERRORS = (FeatureMismatchError, lpcore.LPNumericError,
                  AssertionError, disttrack.HorizonError,
                  markovchain.StateLimitError, markovchain.AbsorptionError,
                  SizeLimitError, OverflowError, ValueError)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
