"""Replay CLI commands against stored output snapshots in ``tests/golden``.

Refactors that must not change any result are checked here: every output
has to match its snapshot byte for byte.  The one tolerance is the
``rel_err_det_swap`` column of ``compare``, which is compared to 1e-12
absolute so the closed form may be re-evaluated by a different stable sum.

The snapshots cover the criterion-12 commands, ``chain`` runs that pin
each engine's options, ``simulate --trace-hash`` grids that pin the
discrete-event traces, and every ``bounds`` task, usage unit and output
format on ``net_mixed.json``, a network with an asymmetric pair of
explicit channels and a lossless (eta = 1) channel.

Write the snapshots of new commands with::

    PYTHONPATH=src python tests/test_golden.py

It writes only missing snapshots.  An existing snapshot whose output
differs is listed, never rewritten; to re-baseline one on purpose, when a
change of output is intended, delete its file first.
"""

import csv
import io
import itertools
import sys
import tempfile
from pathlib import Path

import pytest

from qnd.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DET_SWAP_ABS = 1e-12


def _commands():
    chain = str(GOLDEN / "net_chain.json")
    mixed = str(GOLDEN / "net_mixed.json")
    cases = {
        "c12_bounds_bipartite": ["bounds", chain, "--bipartite", "A", "B"],
        "c12_bounds_multipair_worst": ["bounds", chain, "--multipair",
                                       "--objective", "worst"],
        "c12_bounds_multipartite_csv": ["bounds", chain, "--multipartite",
                                        "--format", "csv"],
        "c12_chain_analytic": ["chain", "analytic", "--n", "1,2", "--pg",
                               "0.5", "--ps", "0.5"],
        "c12_chain_track": ["chain", "track", "--n", "1", "--pg", "0.5",
                            "--ps", "0.5", "--trunc", "400"],
        "c12_chain_markov": ["chain", "markov", "--n", "1", "--pg", "0.5",
                             "--ps", "0.5"],
        "c12_chain_mc": ["chain", "mc", "--n", "1", "--pg", "0.5", "--ps",
                         "0.5", "--samples", "2000", "--seed", "7"],
        "c12_chain_des": ["chain", "des", "--n", "1", "--pg", "0.5", "--ps",
                          "0.5", "--samples", "2000", "--seed", "7"],
        "c12_compare": ["compare", "--n", "1", "--pg", "0.5", "--ps", "0.5"],
        "c12_simulate": ["simulate", "--n", "1", "--pg", "0.5", "--ps", "0.5",
                         "--samples", "500", "--seed", "9", "--trace-hash"],
        "compare_det_swap": ["compare", "--n", "1,2,3", "--pg", "0.3,0.8",
                             "--ps", "1.0"],
        "chain_mc_cutoff": ["chain", "mc", "--n", "2", "--pg", "0.3", "--ps",
                            "0.7", "--tcoh", "50", "--cutoff", "10",
                            "--samples", "300", "--seed", "3"],
        "chain_des_cutoff": ["chain", "des", "--n", "2", "--pg", "0.3",
                             "--ps", "0.7", "--tcoh", "50", "--cutoff", "10",
                             "--samples", "300", "--seed", "3"],
        "simulate_distill": ["simulate", "--n", "1", "--pg", "0.4", "--ps",
                             "0.8", "--tcoh", "30", "--cutoff", "6",
                             "--distill-rounds", "1", "--delay", "1",
                             "--samples", "200", "--seed", "5",
                             "--trace-hash"],
        "simulate_trace_cutoff_delay": [
            "simulate", "--n", "1,2", "--pg", "0.3,0.6", "--ps", "0.5,1.0",
            "--tcoh", "20", "--cutoff", "6,12", "--delay", "2",
            "--samples", "50", "--seed", "11", "--trace-hash"],
        "simulate_trace_swap": [
            "simulate", "--n", "0,1,2", "--pg", "0.3,1.0", "--ps", "0.5",
            "--samples", "50", "--seed", "4", "--trace-hash"],
        "simulate_trace_distill": [
            "simulate", "--n", "1,2", "--pg", "0.5", "--ps", "0.8",
            "--tcoh", "30", "--cutoff", "8", "--distill-rounds", "1",
            "--samples", "50", "--seed", "2", "--trace-hash"],
        "chain_analytic_decay": ["chain", "analytic", "--n", "1,2", "--pg",
                                 "0.3", "--ps", "0.5", "--tcoh", "40",
                                 "--w0", "0.9"],
        "chain_track_cutoff": ["chain", "track", "--n", "1,2", "--pg", "0.3",
                               "--ps", "1.0", "--cutoff", "5"],
        "chain_analytic_det_swap": ["chain", "analytic", "--n", "3,10,20",
                                    "--pg", "0.5", "--ps", "1.0"],
        "chain_track_trunc_cut": ["chain", "track", "--n", "3", "--pg", "0.1",
                                  "--ps", "0.5", "--trunc", "4000"],
        "chain_track_distill": ["chain", "track", "--n", "1", "--pg", "0.5",
                                "--ps", "0.8", "--tcoh", "100",
                                "--distill-rounds", "1", "--w0", "0.95"],
        "chain_markov_n3": ["chain", "markov", "--n", "3", "--pg", "0.1",
                            "--ps", "0.5"],
        "chain_markov_one_step": ["chain", "markov", "--n", "1,2", "--pg",
                                  "0.5", "--ps", "0.5", "--swap-time",
                                  "one-step"],
        "chain_des_delay": ["chain", "des", "--n", "1", "--pg", "0.5", "--ps",
                            "0.5", "--samples", "300", "--seed", "2",
                            "--delay", "2"],
        "chain_mc_distill": ["chain", "mc", "--n", "1", "--pg", "0.4", "--ps",
                             "0.8", "--tcoh", "30", "--distill-rounds", "1",
                             "--w0", "0.9", "--samples", "300", "--seed",
                             "5"],
    }
    tasks = {
        "bipartite": ["--bipartite", "A", "C"],
        "multipair_total": ["--multipair", "--objective", "total"],
        "multipair_worst": ["--multipair", "--objective", "worst"],
        "multipartite": ["--multipartite"],
    }
    units = ("network-use", "channel-use", "fixed-q")
    for (task, targs), unit, fmt in itertools.product(
            tasks.items(), units, ("json", "csv")):
        cases[f"mixed_{task}_{unit}_{fmt}"] = (
            ["bounds", mixed] + targs + ["--unit", unit, "--format", fmt])
    cases["mixed_bipartite_esq_channel-use_json"] = [
        "bounds", mixed, "--bipartite", "A", "C", "--esq-upper",
        "--unit", "channel-use"]
    return cases


COMMANDS = _commands()


def _snapshot(name):
    return GOLDEN / f"{name}.out"


def _run(argv, out_path):
    assert main(argv + ["--out", str(out_path)]) == 0, argv
    return out_path.read_bytes()


def _same_compare_table(expected, actual):
    exp_rows = list(csv.DictReader(io.StringIO(expected.decode())))
    act_rows = list(csv.DictReader(io.StringIO(actual.decode())))
    assert len(exp_rows) == len(act_rows)
    for exp, act in zip(exp_rows, act_rows):
        assert list(exp) == list(act)
        for column, value in exp.items():
            if column == "rel_err_det_swap":
                assert abs(float(act[column]) - float(value)) <= DET_SWAP_ABS
            else:
                assert act[column] == value, column


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_snapshot(name, tmp_path):
    actual = _run(COMMANDS[name], tmp_path / "out")
    expected = _snapshot(name).read_bytes()
    if COMMANDS[name][0] == "compare":
        _same_compare_table(expected, actual)
    else:
        assert actual == expected


def test_snapshot_files_match_commands_one_to_one():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(COMMANDS)


def _regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(COMMANDS.items()):
            path = _snapshot(name)
            data = _run(argv, Path(tmp) / "out")
            if not path.exists():
                path.write_bytes(data)
                print(f"wrote {path.name}", file=sys.stderr)
            elif path.read_bytes() != data:
                print(f"differs, not written: {path.name}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
