"""Benchmark of the ``qnd`` command line, driven in-process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--spans PATH]

Run from the root of a checkout.  One run measures set-up in fresh
interpreters, writes the seeded inputs, runs one warm-up pass of every
command group and checks its outputs, runs the untimed probes, then repeats
timed passes for ``--seconds`` seconds (closed loop, one client).  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported instead of the end-to-end ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 2 means the benchmark could not run (for example, no ``src/qnd``).
"""

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3
UNIT = {"time": "s", "rate": "1/s"}


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def import_cli():
    """Import ``qnd.cli`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "qnd" / "cli.py").is_file():
        raise BenchmarkError(f"no qnd sources under {src}")
    sys.path.insert(0, str(src))
    from qnd import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"qnd imported from {cli.__file__}, not {src}")
    return cli


class Ledger:
    """Operations attempted and failed.  An operation is one CLI call or
    one correctness check; a nonzero exit code, an exception or a failed
    check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = []
        self.unexpected = []

    def record(self, op_id, ok, detail=""):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if op_id in checks.KNOWN_DEFECTS:
            self.known.append(op_id)
        else:
            self.unexpected.append(f"{op_id}: {detail}")


class Runner:
    def __init__(self, cli, workload, values, ledger):
        self.cli = cli
        self.workload = workload
        self.values = values
        self.ledger = ledger
        self.probes = []
        groups = workload.groups
        self.schedule = [(m, i, c) for m, kind, commands in groups
                         if kind == "time" for i, c in enumerate(commands)]
        self.schedule += [(m, r, commands[0])
                          for r in range(workloads.ROUNDS)
                          for m, kind, commands in groups if kind == "rate"]

    def argv(self, template, i=0):
        """The argv of a template; call ``i`` of a rate group samples with
        the workload's sampler seed plus ``i``."""
        seed = int(self.values["sampler_seed"]) + i
        return workloads.expand(template,
                                {**self.values, "sampler_seed": seed})

    def call(self, argv, tracer=None):
        """One CLI call; returns (exit code, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = (tracer.root_call(main, argv) if tracer is not None
                      else main(argv))
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
        if rc != 0:
            sys.stderr.write(f"qnd {' '.join(argv)} -> {rc}\n"
                             f"{err.getvalue()}")
        return rc, out.getvalue(), seconds

    def run_pass(self, tracer=None):
        """Every command group once, the rate groups in ROUNDS rounds, each
        call after a host speed probe.  Returns ({metric: [seconds per
        call]}, {(metric, i): (argv, exit code, stdout)})."""
        gc.collect()
        times, outputs = {}, {}
        for metric, i, template in self.schedule:
            argv = self.argv(template, i)
            self.probes.append(hostspeed.probe())
            rc, text, seconds = self.call(argv, tracer)
            times.setdefault(metric, []).append(seconds)
            outputs[(metric, i)] = (argv, rc, text)
        return times, outputs

    def parsed(self, outputs):
        """Record each call as an operation; returns {key: (argv, rows)}
        for the successful ones."""
        parsed = {}
        for key, (argv, rc, text) in outputs.items():
            self.ledger.record(f"cli[{' '.join(argv)}]", rc == 0,
                               f"exit {rc}")
            if rc == 0:
                parsed[key] = (argv, checks.parse_output(argv, text))
        return parsed

    def sampled_references(self):
        """Tracked means of the chains the MC and DES groups sample."""
        refs = {}
        for metric, kind, commands in self.workload.groups:
            if kind != "rate":
                continue
            argv = checks.tracked_reference_argv(self.argv(commands[0]))
            rc, text, _ = self.call(argv)
            self.ledger.record(f"cli[{' '.join(argv)}]", rc == 0,
                               f"exit {rc}")
            refs[metric] = checks.parse_output(argv, text) if rc == 0 else None
        return refs

    def check_pass(self, parsed, refs):
        """Every correctness check on the parsed outputs of one pass."""
        results = []
        _, track_rows = parsed.get(("track.swap_s", 0), (None, []))
        for (metric, i), (argv, rows) in parsed.items():
            if argv[0] == "bounds":
                results += checks.check_bounds(argv, rows)
            elif argv[0] == "compare":
                results += checks.check_compare(rows)
            elif argv[1] == "track":
                results += checks.check_track(rows)
            elif argv[1] == "markov":
                results += checks.check_markov(rows, track_rows)
            elif i == 0 and refs.get(metric) is not None:
                # One round per sampled group, to keep the chance of a
                # false 4-sigma failure per run small.
                n = int(argv[argv.index("--samples") + 1])
                results += checks.check_sampled(rows, refs[metric], n)
        for check_id, ok, detail in results:
            self.ledger.record(check_id, ok, detail)

    def run_probes(self):
        for template in self.workload.probes:
            argv = self.argv(template)
            rc, text, _ = self.call(argv)
            ok = rc == 0 and all(
                r["captured_mass"] >= checks.MASS_FLOOR
                for r in checks.parse_output(argv, text))
            self.ledger.record(f"probe.exit[{' '.join(argv)}]", ok,
                               f"exit {rc}")

    def timed_passes(self, seconds, warm, trace):
        """Passes until the next one would end after ``seconds``; with
        ``trace`` they alternate untraced and traced, starting untraced.
        Returns (untraced pass times, traced pass times, tracer)."""
        tracer = tracing.Tracer() if trace else None
        plain, traced = [], []
        estimate = pass_seconds(warm[0])
        deadline = time.perf_counter() + seconds
        while True:
            enough = plain and (traced or not trace)
            if enough and time.perf_counter() + estimate > deadline:
                break
            use_tracer = trace and len(traced) < len(plain)
            if use_tracer:
                with tracer.installed():
                    times, outputs = self.run_pass(tracer)
                traced.append(times)
            else:
                times, outputs = self.run_pass()
                plain.append(times)
            estimate = statistics.median(
                pass_seconds(t) for t in plain + traced)
            self.compare_to_warm(outputs, warm[1])
        return plain, traced, tracer

    def compare_to_warm(self, outputs, warm_outputs):
        """A timed call fails if it exits nonzero or its numbers differ
        from the warm-up pass."""
        for key, (argv, rc, text) in outputs.items():
            _, warm_rc, warm_text = warm_outputs[key]
            ok = rc == 0 and (warm_rc != 0 or checks.same_numbers(
                checks.parse_output(argv, text),
                checks.parse_output(argv, warm_text)))
            self.ledger.record(f"cli[{' '.join(argv)}]", ok,
                               f"exit {rc} or output changed")


def pass_seconds(times):
    """Wall seconds of one pass's calls."""
    return sum(sum(calls) for calls in times.values())


def measure_setup(workload, seed, directory, runs):
    """Medians over ``runs`` fresh-interpreter set-ups of the import time,
    the input-writing time and their sum scaled to the reference host."""
    samples = []
    for i in range(runs):
        target = os.path.join(directory, f"setup{i}")
        os.mkdir(target)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload.name,
             str(seed), target],
            capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(proc.stdout.splitlines()[-1])
        sample["setup_s"] = ((sample["import_s"] + sample["inputs_s"])
                             * hostspeed.factor([sample["probe_s"]]))
        samples.append(sample)
    medians = {key: statistics.median(s[key] for s in samples)
               for key in ("import_s", "inputs_s", "setup_s")}
    return {**medians, "runs": runs}


def tail_percentile(seconds):
    """The highest whole percentile of a series of durations with at least
    ten samples above it, as (percentile, seconds), or None when there are
    fewer than twenty samples."""
    n = len(seconds)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(seconds, n=100)[q - 1]


def end_to_end(workload, setup, passes, probes):
    """Medians per metric, scaled to the reference host, plus the summary
    lines printed above the JSON; those give wall times."""
    scale = hostspeed.factor(probes)
    metrics, lines = {}, []
    value = setup["setup_s"]
    metrics["setup_s"] = {"value": value, "unit": "s"}
    wall = setup["import_s"] + setup["inputs_s"]
    lines.append(f"  host speed factor {scale:.4g} (median of {len(probes)} "
                 f"probes); wall-time medians and tails in brackets")
    lines.append(f"  {'setup_s':24s} {value:12.6g} s      [{wall:.6g}, "
                 f"median of {setup['runs']} fresh interpreters]")
    for metric, kind, commands in workload.groups:
        if kind == "rate":
            argv = commands[0]
            n = int(argv[argv.index("--samples") + 1])
            seconds = [s for p in passes for s in p[metric]]
            convert = lambda s: n / s  # noqa: E731
        else:
            seconds = [sum(p[metric]) for p in passes]
            convert = float
        # The median of a rate is the rate of the median duration.
        wall = statistics.median(seconds)
        value = convert(wall * scale)
        metrics[metric] = {"value": value, "unit": UNIT[kind]}
        tail = tail_percentile(seconds)
        tail_text = ("tail n/a (<20 samples)" if tail is None
                     else f"slowest p{tail[0]} {convert(tail[1]):.6g}")
        lines.append(f"  {metric:24s} {value:12.6g} {UNIT[kind]:6s} "
                     f"[{convert(wall):.6g}, {tail_text}, "
                     f"{len(seconds)} samples]")
    return metrics, lines


def per_layer(workload, setup, plain, traced, tracer):
    metrics = {
        "setup.import_s": {"value": setup["import_s"], "unit": "s"},
        "setup.inputs_s": {"value": setup["inputs_s"], "unit": "s"},
    }
    for name, (value, unit) in tracing.layer_metrics(
            tracer, len(traced)).items():
        metrics[name] = {"value": value, "unit": unit}
    join_s, renewal_s = tracing.unit_replay(workload.replay_n, 0.1, 0.5)
    metrics["disttrack.max_combine_s"] = {"value": join_s, "unit": "s"}
    metrics["disttrack.compound_geometric_s"] = {"value": renewal_s,
                                                 "unit": "s"}
    base = statistics.median(pass_seconds(p) for p in plain)
    with_trace = statistics.median(pass_seconds(p) for p in traced)
    metrics["trace.overhead_frac"] = {"value": with_trace / base - 1.0,
                                      "unit": "fraction"}
    lines = [f"  {name:32s} {m['value']:14.6g} {m['unit']}"
             for name, m in metrics.items()]
    lines.append(f"  ({len(plain)} untraced and {len(traced)} traced passes)")
    return metrics, lines


def run(workload, seed, seconds, trace, setup_runs=SETUP_RUNS,
        spans_path=None):
    """One benchmark run; returns (result dict, summary lines)."""
    cli = import_cli()
    os.environ["QND_THREADS"] = str(len(os.sched_getaffinity(0)))
    ledger = Ledger()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(dir=ROOT / ".perfbench_work")
    try:
        setup = measure_setup(workload, seed, directory, setup_runs)
        values = workloads.write_inputs(workload, seed, directory)
        runner = Runner(cli, workload, values, ledger)
        refs = runner.sampled_references()
        warm = runner.run_pass()
        runner.check_pass(runner.parsed(warm[1]), refs)
        runner.run_probes()
        plain, traced, tracer = runner.timed_passes(seconds, warm, trace)
        if trace:
            metrics, lines = per_layer(workload, setup, plain, traced, tracer)
            if spans_path:
                tracer.write_spans(spans_path)
        else:
            metrics, lines = end_to_end(workload, setup, plain,
                                        runner.probes)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    frac = ledger.failed / ledger.attempted
    lines.append(f"  ops.failed_frac {frac:.6g} = {ledger.failed} failed / "
                 f"{ledger.attempted} attempted")
    for op_id in ledger.known:
        lines.append(f"  known defect: {op_id} "
                     f"({checks.KNOWN_DEFECTS[op_id]})")
    for text in ledger.unexpected:
        lines.append(f"  FAILED: {text}")
    result = {"correct": not ledger.unexpected,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the spans "
                                        "to this CSV file")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        result, lines = run(workload, args.seed, args.seconds,
                            bool(args.trace), spans_path=args.spans)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name} seed {args.seed} "
          f"trace {args.trace}:")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
