import concurrent.futures
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qnd
from qnd import chainformulas, cli, disttrack
from qnd.cli import _ENGINES, main
from qnd.flows import FlowAssignment, FlowVerificationError

TWO_SEGMENT = """{
  "nodes": ["A", "M", "B"],
  "edges": [
    {"from": "A", "to": "M", "channel": {"type": "lossy", "eta": 0.5}},
    {"from": "M", "to": "B", "channel": {"type": "lossy", "eta": 0.5}}
  ]
}
"""

MULTIPAIR = """{
  "nodes": ["A", "B", "C"],
  "edges": [
    {"from": "A", "to": "B", "channel": {"type": "explicit", "E": 1, "Q": 1}},
    {"from": "B", "to": "C", "channel": {"type": "explicit", "E": 1, "Q": 1}}
  ],
  "commodities": [["A", "B"], ["B", "C"]],
  "users": ["A", "B", "C"]
}
"""


@pytest.fixture
def netfile(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(TWO_SEGMENT)
    return str(path)


@pytest.fixture
def multifile(tmp_path):
    path = tmp_path / "multi.json"
    path.write_text(MULTIPAIR)
    return str(path)


class TestBounds:
    def test_bipartite_network_use(self, netfile, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bounds", netfile, "--bipartite", "A", "B",
                     "--unit", "network-use", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["lower"] == pytest.approx(1.0)
        assert report["upper"] == pytest.approx(1.0)

    def test_multipair_worst_carries_gap_annotation(self, multifile,
                                                    tmp_path):
        out = tmp_path / "report.json"
        code = main(["bounds", multifile, "--multipair",
                     "--objective", "worst", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert "g2" in report["slack_note"]

    def test_multipartite(self, multifile, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bounds", multifile, "--multipartite",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["upper"] >= report["lower"]

    def test_missing_task_flag_is_usage_error(self, netfile, capsys):
        assert main(["bounds", netfile]) == 64

    def test_invalid_network_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": ["A"], "edges": [], "bogus": 1}')
        assert main(["bounds", str(bad), "--bipartite", "A", "B"]) == 2

    def test_malformed_network_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": ["A", "B"], "edges": [{"from": "A", '
                       '"to": "B", "channel": {"type": "lossy", '
                       '"eta": "0.5"}}]}')
        assert main(["bounds", str(bad), "--bipartite", "A", "B"]) == 2
        assert "edges[0].channel.eta" in capsys.readouterr().err

    @pytest.mark.parametrize("unit", ["fixed-q", "channel-use"])
    def test_infinite_usage_weight_exits_2(self, tmp_path, capsys, unit):
        bad = tmp_path / "bad.json"
        bad.write_text(TWO_SEGMENT.replace(
            '"eta": 0.5}}\n  ]', '"eta": 0.0}, "q": Infinity}\n  ]'))
        assert main(["bounds", str(bad), "--bipartite", "A", "B",
                     "--unit", unit]) == 2
        assert "usage weight q" in capsys.readouterr().err

    def test_non_utf8_network_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00x")
        assert main(["bounds", str(bad), "--bipartite", "A", "B"]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_unknown_node_exits_2(self, netfile, capsys):
        assert main(["bounds", netfile, "--bipartite", "A", "Z"]) == 2

    def test_multipartite_without_users_exits_2(self, netfile, capsys):
        assert main(["bounds", netfile, "--multipartite"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert "no user set" in err

    def test_multipartite_with_one_user_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        doc = json.loads(TWO_SEGMENT)
        doc["users"] = ["A"]
        path.write_text(json.dumps(doc))
        assert main(["bounds", str(path), "--multipartite"]) == 2
        assert "at least two nodes" in capsys.readouterr().err

    def test_multipair_without_commodities_exits_2(self, netfile, capsys):
        assert main(["bounds", netfile, "--multipair"]) == 2
        assert "no commodities" in capsys.readouterr().err

    @pytest.mark.parametrize("task", [["--bipartite", "A", "B"],
                                      ["--multipartite"]])
    @pytest.mark.parametrize("option", [
        ["--objective", "total"], ["--slack-factor", "1.0"],
        ["--objective", "worst", "--slack-factor", "3"]])
    def test_multipair_options_rejected_off_multipair(self, multifile, task,
                                                      option, capsys):
        assert main(["bounds", multifile] + task + option) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ")
        assert option[0] in err and "--multipair" in err

    def test_multipair_defaults_when_options_omitted(self, multifile,
                                                     capsys):
        assert main(["bounds", multifile, "--multipair"]) == 0
        plain = capsys.readouterr().out
        assert main(["bounds", multifile, "--multipair", "--objective",
                     "total", "--slack-factor", "1.0"]) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["task"] == "multipair/total k=2"

    @pytest.mark.parametrize("factor", ["nan", "0.5", "-1", "inf"])
    def test_bad_slack_factor_exits_64_before_any_solve(self, multifile,
                                                        factor, monkeypatch,
                                                        capsys):
        from qnd import capbounds, flows
        solved = []

        def spy(*args, **kwargs):
            solved.append(args)
            return flows._solve_flow(*args, **kwargs)

        # capbounds binds the name at import; spy on both references.
        monkeypatch.setattr(flows, "_solve_flow", spy)
        monkeypatch.setattr(capbounds, "_solve_flow", spy)
        assert main(["bounds", multifile, "--multipair", "--slack-factor",
                     factor]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "--slack-factor must be finite and >= 1" in err
        assert solved == []
        # Refused before the network file is read.
        assert main(["bounds", multifile + ".missing", "--multipair",
                     "--slack-factor", factor]) == 64

    def test_infinite_slack_factor_refused_by_library(self):
        from qnd import capbounds, netmodel
        net = netmodel.parse_network(MULTIPAIR)
        with pytest.raises(ValueError, match="finite"):
            capbounds.multipair_bounds(net, net.commodities,
                                       slack_factor=math.inf)

    def test_failed_flow_verification_exits_3(self, netfile, monkeypatch,
                                              capsys):
        def reject(self, graph, shared_capacity=True):
            raise FlowVerificationError("capacity violated on {A, M}")

        monkeypatch.setattr(FlowAssignment, "verify", reject)
        assert main(["bounds", netfile, "--bipartite", "A", "B"]) == 3
        assert "capacity violated" in capsys.readouterr().err

    def test_csv_format(self, netfile, tmp_path):
        out = tmp_path / "report.csv"
        main(["bounds", netfile, "--bipartite", "A", "B",
              "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "task,unit,lower,upper,q_opt,slack_note"
        assert len(lines) == 2


def _rows(out):
    lines = out.splitlines()
    return [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]


class TestChain:
    def test_analytic_single_level(self, tmp_path, capsys):
        code = main(["chain", "analytic", "--n", "1",
                     "--pg", "0.5", "--ps", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["mean_t"]) == pytest.approx(16.0 / 3.0)

    @pytest.mark.parametrize("pg", [0.1, 0.5])
    def test_analytic_deterministic_swap_mean_is_exact(self, pg, capsys):
        # With p_s = 1 the chain waits for the slowest of its 2**n
        # segments; the level-by-level estimate was off by 16 orders of
        # magnitude at n = 100, p_g = 0.1.
        assert main(["chain", "analytic", "--n", "3,10,20,100", "--pg",
                     str(pg), "--ps", "1.0"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert [float(row["mean_t"]) for row in rows] == [
            chainformulas.det_swap_mean(2 ** n, pg) for n in (3, 10, 20, 100)]

    def test_track_reports_captured_mass(self, capsys):
        code = main(["chain", "track", "--n", "2", "--pg", "0.5",
                     "--ps", "0.5", "--trunc", "2000"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["captured_mass"]) >= 1.0 - 1e-6

    def test_timings_append_wall_ms(self, capsys):
        argv = ["chain", "analytic", "--n", "1,2", "--pg", "0.5",
                "--ps", "0.5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(argv + ["--timings"]) == 0
        timed = capsys.readouterr().out.splitlines()
        assert len(timed) == len(plain) == 3
        assert timed[0] == plain[0] + ",wall_ms"
        for line, reference in zip(timed[1:], plain[1:]):
            rest, wall_ms = line.rsplit(",", 1)
            assert rest == reference
            assert 0.0 <= float(wall_ms) < math.inf

    def test_markov_one_step(self, capsys):
        code = main(["chain", "markov", "--n", "1", "--pg", "0.5",
                     "--ps", "0.5", "--swap-time", "one-step"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["mean_t"]) == pytest.approx(16.0 / 3.0 + 2.0)

    def test_delay_needs_des_engine(self, capsys):
        for engine in ("analytic", "track", "markov", "mc"):
            assert main(["chain", engine, "--n", "1", "--pg", "0.5",
                         "--samples", "100", "--delay", "3"]) == 3
            assert "--delay needs the des engine" in capsys.readouterr().err

    def test_des_honours_delay(self, capsys):
        assert main(["chain", "des", "--n", "1", "--pg", "0.5",
                     "--samples", "4000", "--seed", "1", "--delay", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        # Mean wait 8/3 without delay; the one swap adds two steps.
        assert abs(float(row["mean_t"]) - (8.0 / 3.0 + 2.0)) < \
            4.0 * float(row["stderr_t"])

    def test_swap_time_needs_markov_engine(self, capsys):
        for engine in ("analytic", "track", "mc", "des"):
            assert main(["chain", engine, "--n", "1", "--pg", "0.5",
                         "--samples", "100", "--swap-time",
                         "one-step"]) == 3
            assert "--swap-time needs the markov engine" in \
                capsys.readouterr().err

    def test_markov_refuses_n4_fast(self):
        # 16 segments have 3**16 generation outcomes; the chain is refused
        # before any matrix is built, not left to run out of memory.
        src = Path(qnd.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "qnd.cli", "chain", "markov", "--n", "4",
             "--pg", "0.1", "--ps", "0.5"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=30)
        assert done.returncode == 3
        assert done.stdout == ""
        assert "generation outcomes" in done.stderr

    @pytest.mark.parametrize("command", [["chain", "des"], ["simulate"]])
    def test_delay_above_cutoff_exits_at_once(self, command):
        # Such a run would never end; a subprocess with a timeout keeps a
        # regression from hanging the suite.
        src = Path(qnd.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "qnd.cli", *command, "--n", "1",
             "--pg", "0.5", "--ps", "0.5", "--cutoff", "2", "--delay", "3",
             "--samples", "10"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=30)
        assert done.returncode == 3
        assert done.stdout == ""
        assert "delay 3 exceeds the cut-off tau=2" in done.stderr

    def test_markov_rejects_cutoff(self, capsys):
        assert main(["chain", "markov", "--n", "1", "--pg", "0.5",
                     "--cutoff", "5"]) == 3

    def test_analytic_rejects_distillation(self, capsys):
        assert main(["chain", "analytic", "--n", "1", "--pg", "0.5",
                     "--distill-rounds", "1"]) == 3

    @pytest.mark.parametrize("w0", ["1.5", "-0.1", "nan"])
    def test_analytic_rejects_w0_outside_the_unit_interval(self, w0, capsys):
        # The analytic engine used to square such a value into mean_w.
        assert main(["chain", "analytic", "--n", "1", "--pg", "0.5",
                     "--w0", w0]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "w0 out of [0, 1]" in err

    def test_analytic_quality_is_exactly_one_on_perfect_links(self, capsys):
        # decay_factor(p, 1) was 1 only up to rounding, squared at every
        # level, and divided by zero once p fell below the float epsilon.
        n = ",".join(str(i) for i in range(1, 61))
        assert main(["chain", "analytic", "--n", n, "--pg", "0.1,0.5",
                     "--ps", "0.5,1.0"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert len(rows) == 240
        assert {row["mean_w"] for row in rows} == {"1.0"}

    def test_analytic_deterministic_swap_beyond_the_float_range(self, capsys):
        # 2**1022 segments used to stop on "math domain error" and 2**1024
        # on "int too large to convert to float"; with a perfect memory
        # the quality needs no level mean, which overflows past n ~ 1750.
        assert main(["chain", "analytic", "--n", "1021,1022,1024,2000",
                     "--pg", "0.5", "--ps", "1"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert [row["n"] for row in rows] == ["1021", "1022", "1024", "2000"]
        for row in rows:
            assert row["mean_w"] == "1.0"
            assert float(row["mean_t"]) - int(row["n"]) == pytest.approx(
                1.3327473824329, abs=1e-9)

    def test_analytic_quality_stays_in_the_unit_interval(self, capsys):
        n = ",".join(str(i) for i in range(1, 61))
        assert main(["chain", "analytic", "--n", n, "--pg", "0.1,0.5",
                     "--ps", "0.5,1.0", "--tcoh", "40", "--w0", "0.9"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert all(0.0 <= float(row["mean_w"]) <= 1.0 for row in rows)

    def test_analytic_mean_overflow_is_an_engine_error(self, capsys):
        assert main(["chain", "analytic", "--n", "700", "--pg", "0.5",
                     "--ps", "0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("grid", [
        ["--n", "0", "--pg", "1e-320", "--ps", "0.5"],
        ["--n", "3", "--pg", "1e-320", "--ps", "0.5"],
        ["--n", "1", "--pg", "0.1", "--ps", "5e-324"],
        ["--n", "2", "--pg", "0.5", "--ps", "1e-300"]])
    def test_analytic_mean_overflow_at_any_level_is_an_engine_error(
            self, grid, capsys):
        # The seed 1/p_g printed inf with exit 0; a level denominator that
        # underflowed to 0 raised ZeroDivisionError with a traceback.
        assert main(["chain", "analytic", *grid]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "overflows the float range at level" in err

    @pytest.mark.parametrize("pg", ["1e-9", "1e-320"])
    def test_analytic_sum_past_the_term_limit_is_an_engine_error(
            self, pg, capsys):
        # 3.8e10 terms at 1e-9 and an infinite count at 1e-320: both are
        # refused before the sum starts.
        t0 = time.perf_counter()
        assert main(["chain", "analytic", "--n", "1", "--pg", pg,
                     "--ps", "1"]) == 3
        assert time.perf_counter() - t0 < 10.0
        out, err = capsys.readouterr()
        assert out == ""
        assert "terms, beyond the limit 536870912" in err

    def test_analytic_agrees_with_track_wherever_it_is_exact(self, capsys):
        # The analytic engine is exact at n <= 1, for mean_t at p_s = 1 and
        # for mean_w without decay; its cut-off branch printed a flat
        # formula's mean past n = 1, 11 standard errors off at n = 2.
        failed = []
        for n, pg, ps, tcoh, cutoff, w0 in itertools.product(
                range(4), ("0.3", "0.9"), ("0.5", "1"), ("inf", "40"),
                ([], ["--cutoff", "5"]), ("1", "0.95")):
            cell = ["--n", str(n), "--pg", pg, "--ps", ps, "--tcoh", tcoh,
                    "--w0", w0, *cutoff]
            if main(["chain", "analytic", *cell]) != 0:
                capsys.readouterr()
                continue
            analytic = _rows(capsys.readouterr().out)[0]
            assert main(["chain", "track", *cell]) == 0
            track = _rows(capsys.readouterr().out)[0]
            exact = {"mean_t": n <= 1 or ps == "1",
                     "mean_w": n <= 1 or tcoh == "inf"}
            for column in (c for c, claimed in exact.items()
                           if claimed and analytic[c] != ""):
                if float(analytic[column]) != pytest.approx(
                        float(track[column]), rel=1e-9):
                    failed.append((cell, column, analytic[column],
                                   track[column]))
        assert failed == []

    def test_grid_order_stable(self, tmp_path):
        out = tmp_path / "grid.csv"
        main(["chain", "analytic", "--n", "1,2", "--pg", "0.2,0.5",
              "--ps", "0.5", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        cells = [tuple(line.split(",")[1:3]) for line in lines[1:]]
        assert cells == [("1", "0.2"), ("1", "0.5"),
                         ("2", "0.2"), ("2", "0.5")]

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["chain", "mc", "--n", "1", "--pg", "0.5", "--ps", "0.5",
                "--samples", "400", "--seed", "9"]
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_export_pmf(self, tmp_path):
        pmf_path = tmp_path / "pmf.csv"
        main(["chain", "track", "--n", "1", "--pg", "0.5", "--ps", "0.5",
              "--trunc", "300", "--out", str(tmp_path / "t.csv"),
              "--export-pmf", str(pmf_path)])
        text = pmf_path.read_text()
        assert "t,pmf,cdf,mean_w,mean_F" in text

    def test_export_pmf_from_markov_sizes_itself(self, tmp_path, capsys):
        pmf_path = tmp_path / "pmf.csv"
        assert main(["chain", "markov", "--n", "1", "--pg", "0.5",
                     "--ps", "0.5", "--export-pmf", str(pmf_path)]) == 0
        text = pmf_path.read_text()
        assert text.startswith("# n=1 p_g=0.5 p_s=0.5 t_coh=inf tau=None\n")
        pmf = [float(line.split(",")[1]) for line in text.splitlines()[2:]]
        assert math.fsum(pmf) >= 1.0 - 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("ps", ["0.5", "1.0"])
    def test_markov_export_matches_the_tracked_export(self, n, ps, tmp_path):
        # Neither export takes --trunc: each ends at its own horizon, and
        # past its end a PMF is zero.
        pmfs = []
        for engine in ("markov", "track"):
            path = tmp_path / f"{engine}.csv"
            assert main(["chain", engine, "--n", str(n), "--pg", "0.3",
                         "--ps", ps, "--export-pmf", str(path),
                         "--out", str(tmp_path / "rows.csv")]) == 0
            lines = path.read_text().splitlines()[2:]
            pmfs.append([float(line.split(",")[1]) for line in lines])
        markov, track = pmfs
        assert min(map(len, pmfs)) > 100
        assert max(abs(a - b) for a, b in itertools.zip_longest(
            markov, track, fillvalue=0.0)) <= 1e-9

    def test_markov_export_refuses_a_long_chain_at_once(self, tmp_path,
                                                        capsys):
        # 36.8 times the mean, 3e6 ticks, exceeds the horizon limit: the
        # PMF is refused before its first step.
        pmf_path = tmp_path / "pmf.csv"
        t0 = time.perf_counter()
        assert main(["chain", "markov", "--n", "1", "--pg", "1e-6",
                     "--ps", "0.5", "--export-pmf", str(pmf_path)]) == 3
        assert time.perf_counter() - t0 < 10.0
        out, err = capsys.readouterr()
        assert out == ""
        assert "beyond the default limit" in err
        assert not pmf_path.exists()

    def test_export_pmf_headers_name_every_grid_coordinate(self, tmp_path):
        pmf_path = tmp_path / "pmf.csv"
        assert main(["chain", "track", "--n", "1", "--pg", "0.5",
                     "--tcoh", "10,20", "--cutoff", "5",
                     "--out", str(tmp_path / "t.csv"),
                     "--export-pmf", str(pmf_path)]) == 0
        headers = [line for line in pmf_path.read_text().splitlines()
                   if line.startswith("#")]
        assert headers == ["# n=1 p_g=0.5 p_s=1.0 t_coh=10.0 tau=5",
                           "# n=1 p_g=0.5 p_s=1.0 t_coh=20.0 tau=5"]

    def test_tcoh_parses_every_spelling_of_infinity(self, capsys):
        assert main(["chain", "analytic", "--n", "1", "--pg", "0.5",
                     "--tcoh", "inf,Inf,INF,5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["inf", "inf", "inf",
                                                       "5.0"]

    def test_export_pmf_rejected_before_any_cell_runs(self, tmp_path,
                                                      capsys):
        pmf_path = tmp_path / "pmf.csv"
        for argv in (["mc", "--samples", "100"], ["des", "--samples", "100"],
                     ["analytic"]):
            assert main(["chain", *argv, "--n", "1", "--pg", "0.5",
                         "--export-pmf", str(pmf_path)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert "--export-pmf needs the track or markov engine" in err
            assert not pmf_path.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        main(["chain", "analytic", "--n", "1", "--pg", "0.5",
              "--ps", "0.5", "--format", "json", "--out", str(out)])
        rows = json.loads(out.read_text())
        assert rows[0]["engine"] == "analytic"


# Every engine-specific ``chain`` option, once per engine that does not
# read it.  Each value equals the option's default where it has one: an
# option counts as given whatever its value.
UNREAD = {
    "analytic": [["--cutoff", "5"], ["--trunc", "50"],
                 ["--distill-rounds", "0"], ["--swap-time", "zero-step"],
                 ["--delay", "0"], ["--samples", "10000"], ["--seed", "0"],
                 ["--export-pmf", "{pmf}"]],
    "track": [["--swap-time", "zero-step"], ["--delay", "0"],
              ["--samples", "10000"], ["--seed", "0"]],
    "markov": [["--tcoh", "inf"], ["--cutoff", "5"], ["--w0", "1.0"],
               ["--distill-rounds", "0"], ["--delay", "0"],
               ["--samples", "10000"], ["--seed", "0"], ["--trunc", "50"]],
    "mc": [["--trunc", "50"], ["--swap-time", "zero-step"], ["--delay", "0"],
           ["--export-pmf", "{pmf}"]],
    "des": [["--trunc", "50"], ["--swap-time", "zero-step"],
            ["--export-pmf", "{pmf}"]],
}

# The commands that ran with the unread options dropped before the engine
# table, and the options each must name.
DROPPED_BEFORE = [
    (["track", "--samples", "5", "--seed", "3"], ["--samples", "--seed"]),
    (["markov", "--w0", "0.5"], ["--w0"]),
    (["markov", "--tcoh", "10,20"], ["--tcoh"]),
    (["markov", "--trunc", "300"], ["--trunc"]),
    (["mc", "--trunc", "10"], ["--trunc"]),
    (["analytic", "--trunc", "5", "--seed", "4"], ["--trunc", "--seed"]),
]

# Each engine, two settings of one option it reads, and the output column
# they must move ("pmf_rows": the number of exported PMF lines).  Outputs
# that merely echo the option, such as t_coh, are not compared.
READ = [
    ("analytic", ["--tcoh", "40"], ["--tcoh", "80"], "mean_w"),
    ("analytic", ["--w0", "0.9"], ["--w0", "0.8"], "mean_w"),
    ("track", ["--tcoh", "40"], ["--tcoh", "80"], "mean_w"),
    ("track", ["--cutoff", "3"], ["--cutoff", "6"], "mean_t"),
    ("track", ["--w0", "0.9"], ["--w0", "0.8"], "mean_w"),
    ("track", ["--distill-rounds", "0"], ["--distill-rounds", "1"],
     "mean_t"),
    ("track", ["--trunc", "30", "--export-pmf", "{pmf}"],
     ["--trunc", "40", "--export-pmf", "{pmf}"], "pmf_rows"),
    ("track", ["--trunc", "30"], ["--trunc", "30", "--export-pmf", "{pmf}"],
     "pmf_rows"),
    ("markov", ["--swap-time", "zero-step"], ["--swap-time", "one-step"],
     "mean_t"),
    ("markov", [], ["--export-pmf", "{pmf}"], "pmf_rows"),
] + [
    (engine, a, b, column)
    for engine in ("mc", "des")
    for a, b, column in [
        (["--tcoh", "40"], ["--tcoh", "80"], "mean_w"),
        (["--cutoff", "1"], ["--cutoff", "3"], "mean_t"),
        (["--w0", "0.9"], ["--w0", "0.8"], "mean_w"),
        (["--distill-rounds", "0"], ["--distill-rounds", "1"], "mean_t"),
        (["--samples", "300"], ["--samples", "400"], "mean_t"),
        (["--seed", "1"], ["--seed", "2"], "mean_t"),
    ]
] + [("des", ["--delay", "0"], ["--delay", "2"], "mean_t")]


def _chain_output(tmp_path, engine, extra):
    """The first row of a one-cell ``chain`` run and the number of exported
    PMF lines (None without an export)."""
    pmf = tmp_path / "pmf.csv"
    pmf.unlink(missing_ok=True)
    sampled = (["--samples", "300", "--seed", "1"]
               if engine in ("mc", "des") else [])
    out = tmp_path / "rows.csv"
    assert main(["chain", engine, "--n", "1", "--pg", "0.5", *sampled,
                 *[arg.format(pmf=pmf) for arg in extra],
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    row["pmf_rows"] = (len(pmf.read_text().splitlines()) if pmf.exists()
                       else None)
    return row


class TestEngineTable:
    @pytest.mark.parametrize("engine,option", [
        (engine, option) for engine, options in UNREAD.items()
        for option in options])
    def test_unread_option_rejected_before_any_cell_runs(
            self, engine, option, tmp_path, capsys):
        out, pmf = tmp_path / "rows.csv", tmp_path / "pmf.csv"
        argv = ["chain", engine, "--n", "1", "--pg", "0.5",
                *[arg.format(pmf=pmf) for arg in option], "--out", str(out)]
        assert main(argv) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert f"{option[0]} needs the" in stderr
        assert not out.exists() and not pmf.exists()

    @pytest.mark.parametrize("argv,options", DROPPED_BEFORE)
    def test_formerly_dropped_options_rejected(self, argv, options, tmp_path,
                                               capsys):
        out = tmp_path / "rows.csv"
        assert main(["chain", argv[0], "--n", "1", "--pg", "0.5", *argv[1:],
                     "--out", str(out)]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert f"the {argv[0]} engine does not read" in stderr
        for option in options:
            assert f"{option} needs the" in stderr
        assert not out.exists()

    def test_markov_trunc_rejected_with_export_pmf(self, tmp_path, capsys):
        # The Markov PMF sizes itself, so --trunc is not read even beside
        # --export-pmf.
        pmf = tmp_path / "f"
        assert main(["chain", "markov", "--n", "1", "--pg", "0.5",
                     "--trunc", "50", "--export-pmf", str(pmf)]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "--trunc needs the track engine" in stderr
        assert "--export-pmf" not in stderr
        assert not pmf.exists()

    def test_rejection_names_the_engines_that_read_the_option(self, tmp_path,
                                                              capsys):
        assert main(["chain", "mc", "--n", "1", "--pg", "0.5", "--swap-time",
                     "zero-step", "--export-pmf", str(tmp_path / "f")]) == 3
        err = capsys.readouterr().err
        assert "--swap-time needs the markov engine" in err
        assert "--export-pmf needs the track or markov engine" in err
        assert main(["chain", "markov", "--n", "1", "--pg", "0.5", "--seed",
                     "1"]) == 3
        assert "--seed needs the mc or des engine" in capsys.readouterr().err

    @pytest.mark.parametrize("engine,a,b,column", READ)
    def test_read_option_moves_the_output(self, engine, a, b, column,
                                          tmp_path):
        row_a = _chain_output(tmp_path, engine, a)
        row_b = _chain_output(tmp_path, engine, b)
        assert row_a[column] != row_b[column]

    def test_matrices_cover_every_engine_and_option_once(self):
        options = {"--tcoh", "--cutoff", "--w0", "--trunc", "--distill-rounds",
                   "--swap-time", "--delay", "--samples", "--seed",
                   "--export-pmf"}
        for engine, unread in UNREAD.items():
            read = {arg for e, a, b, _ in READ if e == engine
                    for arg in a + b if arg.startswith("--")}
            rejected = {option[0] for option in unread}
            assert read | rejected == options, engine
            assert read & rejected == set(), engine
            assert read == _ENGINES[engine].reads, engine


class TestCompare:
    def test_error_table(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--n", "1", "--pg", "0.5", "--ps", "0.5",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["rel_err_geometric_level"]) < 1e-9
        assert float(row["exact_mean"]) == pytest.approx(16.0 / 3.0,
                                                         abs=1e-6)

    def test_det_swap_exact_at_64_segments(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--n", "6", "--pg", "0.1", "--ps", "1.0",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["rel_err_det_swap"]) <= 1e-9

    def test_pmf_overlays(self, tmp_path):
        pmf_dir = tmp_path / "pmf"
        main(["compare", "--n", "2", "--pg", "0.5", "--ps", "0.5",
              "--out", str(tmp_path / "cmp.csv"), "--pmf-out",
              str(pmf_dir)])
        files = list(pmf_dir.iterdir())
        assert len(files) == 1
        header = files[0].read_text().splitlines()[0]
        assert header == "t,pmf_exact,pmf_geometric"
        assert files[0].name == "pmf_n2_pg0.5_ps0.5.csv"

    def test_pmf_overlays_of_close_cells_keep_apart(self, tmp_path):
        pmf_dir = tmp_path / "pmf"
        assert main(["compare", "--n", "1", "--pg", "0.1234561,0.1234562",
                     "--ps", "0.5", "--out", str(tmp_path / "cmp.csv"),
                     "--pmf-out", str(pmf_dir)]) == 0
        assert sorted(f.name for f in pmf_dir.iterdir()) == [
            "pmf_n1_pg0.1234561_ps0.5.csv", "pmf_n1_pg0.1234562_ps0.5.csv"]

    @pytest.mark.parametrize("flag", [
        ["--tcoh", "10"], ["--cutoff", "5"], ["--samples", "10"],
        ["--seed", "1"], ["--w0", "0.9"]])
    def test_rejects_options_it_does_not_read(self, flag, capsys):
        assert main(["compare", "--n", "1", "--pg", "0.5", "--ps", "0.5",
                     *flag]) == 64
        assert capsys.readouterr().out == ""

    def test_exact_mean_is_the_track_engine_mean(self, capsys):
        grid = ["--n", "1,2,3", "--pg", "0.3,0.8", "--ps", "0.5,1.0",
                "--trunc", "3000"]
        assert main(["compare", *grid]) == 0
        compared = _rows(capsys.readouterr().out)
        assert main(["chain", "track", *grid]) == 0
        tracked = _rows(capsys.readouterr().out)
        assert len(compared) == len(tracked) == 12
        assert ([row["exact_mean"] for row in compared]
                == [row["mean_t"] for row in tracked])


class TestTrackedPmfCalls:
    """A ``chain track`` or ``compare`` cell calls the module-global
    ``disttrack.chain_distribution`` once: on the protocol minus its last
    unit for a row summarised from the renewal law, on the full protocol
    when a PMF option needs the whole PMF."""

    GRID = ["--n", "1,2,3", "--pg", "0.5", "--ps", "0.5"]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        inner = disttrack.chain_distribution

        def spy(params, protocol=None, t_trunc=None):
            calls.append((params.n, protocol.plan, t_trunc))
            return inner(params, protocol, t_trunc)

        monkeypatch.setattr(disttrack, "chain_distribution", spy)
        return calls

    @pytest.mark.parametrize("command", [["chain", "track"], ["compare"]])
    def test_summary_rows_track_the_level_below(self, command, calls,
                                                capsys):
        assert main(command + self.GRID) == 0
        assert sorted(calls) == [(n, ("swap",) * n, None) for n in (0, 1, 2)]

    @pytest.mark.parametrize("command, option, t_trunc", [
        (["chain", "track"], ["--trunc", "3000"], 3000),
        (["chain", "track"], ["--export-pmf", "{tmp}/pmf.csv"], None),
        (["compare"], ["--trunc", "3000"], 3000),
        (["compare"], ["--pmf-out", "{tmp}/pmf"], None)])
    def test_pmf_options_track_the_full_protocol(self, command, option,
                                                 t_trunc, calls, tmp_path,
                                                 capsys):
        option = [arg.format(tmp=tmp_path) for arg in option]
        assert main(command + self.GRID + option) == 0
        assert sorted(calls) == [(n, ("swap",) * n, t_trunc)
                                 for n in (1, 2, 3)]


class TestSimulate:
    def test_rejects_trunc(self, capsys):
        assert main(["simulate", "--n", "1", "--pg", "0.5",
                     "--trunc", "100"]) == 64

    def test_batch_summary(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--n", "1", "--pg", "0.5", "--ps", "0.5",
                     "--samples", "500", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert int(row["n_samples"]) == 500

    def test_trace_hash_seed_stable(self, tmp_path):
        argv = ["simulate", "--n", "1", "--pg", "0.5", "--ps", "0.5",
                "--samples", "50", "--seed", "3", "--trace-hash"]
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        row = dict(zip(*[line.split(",")
                         for line in out1.read_text().splitlines()[:2]]))
        assert len(row["trace_sha256"]) == 64

    def test_delay_flag(self, tmp_path, capsys):
        code = main(["simulate", "--n", "1", "--pg", "0.5", "--ps", "1.0",
                     "--samples", "4000", "--seed", "1", "--delay", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["mean_t"]) == pytest.approx(8.0 / 3.0 + 2.0,
                                                     abs=0.15)

    def test_batches_are_the_des_engine_batches(self, capsys):
        grid = ["--n", "1,2", "--pg", "0.4", "--ps", "0.8", "--samples",
                "200", "--seed", "6", "--tcoh", "30,inf", "--cutoff", "8",
                "--delay", "1", "--distill-rounds", "1", "--w0", "0.95"]
        assert main(["simulate", *grid]) == 0
        simulated = _rows(capsys.readouterr().out)
        assert main(["chain", "des", *grid]) == 0
        chained = _rows(capsys.readouterr().out)
        assert len(simulated) == len(chained) == 4
        for column in ("mean_t", "stderr_t", "mean_w"):
            assert ([row[column] for row in simulated]
                    == [row[column] for row in chained]), column


class TestImport:
    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency: with scipy made
        # unimportable, one command of each kind and every chain engine
        # must still succeed, and none may load a scipy module.
        src = Path(qnd.__file__).resolve().parent.parent
        mixed = Path(__file__).resolve().parent / "golden" / "net_mixed.json"
        chain = ["--n", "1", "--pg", "0.5", "--ps", "0.5"]
        sampled = ["--samples", "100", "--seed", "1"]
        commands = [
            ["bounds", str(mixed), "--bipartite", "A", "C"],
            ["chain", "analytic", *chain, "--tcoh", "10"],
            ["chain", "track", *chain, "--tcoh", "10", "--cutoff", "5"],
            ["chain", "markov", *chain, "--export-pmf", str(tmp_path / "pmf")],
            ["chain", "mc", *chain, "--tcoh", "10", *sampled],
            ["chain", "des", *chain, "--tcoh", "10", *sampled],
            ["compare", "--n", "1,2", "--pg", "0.5", "--ps", "0.5"],
            ["simulate", *chain, *sampled],
        ]
        commands = [argv + ["--out", str(tmp_path / f"out{i}")]
                    for i, argv in enumerate(commands)]
        code = (f"import json, sys; sys.path.insert(0, {str(src)!r}); "
                "sys.modules['scipy'] = None; "
                "from qnd.cli import main; "
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
                "print(json.dumps([codes, sorted(m for m, mod in "
                "sys.modules.items() if m.startswith('scipy') and mod)]))")
        done = subprocess.run([sys.executable, "-c", code,
                               json.dumps(commands)], check=True,
                              capture_output=True, text=True, timeout=120)
        codes, loaded = json.loads(done.stdout)
        assert codes == [0] * len(commands)
        assert loaded == []

    def test_cli_import_builds_no_parser(self):
        # The parser is built by the first main call, so importing the
        # module stays cheap.
        src = Path(qnd.__file__).resolve().parent.parent
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                "import qnd.cli; "
                "print(qnd.cli._build_parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.strip() == "0"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    def test_import_keeps_blas_to_one_thread(self):
        # The dense solves are small: one OpenBLAS thread makes the Markov
        # engine's bytes the same on every host.
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        src = Path(qnd.__file__).resolve().parent.parent
        code = (f"import os, sys; sys.path.insert(0, {str(src)!r}); "
                "import qnd; import numpy as np; "
                "a = np.random.default_rng(0).random((500, 500)); "
                "np.linalg.solve(a + 500 * np.eye(500), np.ones(500)); "
                "print(len(os.listdir('/proc/self/task')), "
                "os.environ['OPENBLAS_NUM_THREADS'])")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=60)
        assert done.stdout.split() == ["1", "1"]

    def test_import_keeps_a_given_blas_setting(self):
        src = Path(qnd.__file__).resolve().parent.parent
        code = (f"import os, sys; sys.path.insert(0, {str(src)!r}); "
                "import qnd; print(os.environ['OPENBLAS_NUM_THREADS'])")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "2"},
                              check=True, capture_output=True, text=True,
                              timeout=60)
        assert done.stdout.strip() == "2"


class TestCellPool:
    # Only the tracker's cells run on the cell pool; every other engine runs
    # its grid in order on the calling thread.
    POOLED = {
        "track": ["chain", "track", "--n", "1,2,3", "--pg", "0.3", "--ps",
                  "0.7", "--tcoh", "50", "--cutoff", "20"],
        "compare": ["compare", "--n", "1,2", "--pg", "0.3,0.6", "--ps",
                    "0.5,1.0"],
    }
    SAMPLED = ["--n", "1,2", "--pg", "0.5,0.9", "--ps", "0.5",
               "--samples", "50", "--seed", "3"]
    IN_ORDER = {
        "analytic": ["chain", "analytic", "--n", "1,2,3", "--pg", "0.3,0.6",
                     "--ps", "0.5"],
        "markov": ["chain", "markov", "--n", "1,2", "--pg", "0.3,0.6",
                   "--ps", "0.5"],
        "mc": ["chain", "mc", *SAMPLED],
        "des": ["chain", "des", *SAMPLED],
        "simulate": ["simulate", *SAMPLED, "--trace-hash"],
    }

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker count of every thread pool built while a test runs."""
        built = []
        real = concurrent.futures.ThreadPoolExecutor

        class Spy(real):
            def __init__(self, max_workers=None, *args, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        return built

    @staticmethod
    def usable_cores(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)

    @pytest.mark.parametrize("command", sorted(IN_ORDER))
    def test_other_engines_build_no_pool(self, command, pools, monkeypatch,
                                         tmp_path):
        self.usable_cores(monkeypatch, 4)
        argv = self.IN_ORDER[command] + ["--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(_rows((tmp_path / "out").read_text())) > 1
        assert pools == []

    @pytest.mark.parametrize("command", sorted(POOLED))
    def test_pooled_grid_matches_one_core(self, command, pools, monkeypatch,
                                          tmp_path):
        outputs = []
        for cores in (4, 1):
            self.usable_cores(monkeypatch, cores)
            out = tmp_path / f"out{cores}"
            assert main(self.POOLED[command] + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert pools == [min(4, len(_rows(outputs[0].decode())))]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cores, workers", [(3, 3), (64, 8)])
    def test_pool_counts_the_usable_cores_at_most_8(self, cores, workers,
                                                     pools, monkeypatch):
        self.usable_cores(monkeypatch, cores)
        pg = ",".join(str(0.05 * k) for k in range(1, 11))
        assert main(["chain", "track", "--n", "1", "--pg", pg,
                     "--out", os.devnull]) == 0
        assert pools == [workers]

    def test_one_cell_builds_no_pool(self, pools, monkeypatch):
        self.usable_cores(monkeypatch, 4)
        assert main(["chain", "track", "--n", "2", "--pg", "0.5",
                     "--out", os.devnull]) == 0
        assert pools == []


class TestUsage:
    def test_unknown_engine(self):
        assert main(["chain", "warp", "--n", "1", "--pg", "0.5"]) == 64

    def test_missing_required_flag(self):
        assert main(["chain", "track", "--pg", "0.5"]) == 64

    def test_bad_number_list(self):
        assert main(["chain", "track", "--n", "1", "--pg", "zero"]) == 64

    @pytest.mark.parametrize("flag, value", [
        ("--pg", ","), ("--pg", "0.1,,0.2"), ("--pg", "0.1,"), ("--pg", ""),
        ("--n", "1,"), ("--ps", ",0.5"), ("--tcoh", "10,"),
        ("--cutoff", "5,,6")])
    def test_empty_list_item_is_usage_error(self, flag, value, capsys):
        argv = {"--n": "1", "--pg": "0.5", flag: value}
        assert main(["chain", "mc", *(x for kv in argv.items() for x in kv),
                     "--samples", "10"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize("command", ["mc", "des"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_the_key_range_is_usage_error(self, command, seed,
                                                       capsys):
        assert main(["chain", command, "--n", "1", "--pg", "0.5",
                     "--samples", "10", "--seed", seed]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed must be in [0, 2**64)" in err


MIXED = str(Path(__file__).resolve().parent / "golden" / "net_mixed.json")


def _strict_json(text):
    """Parse ``text`` as RFC 8259 JSON: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    GRID = ["--n", "1", "--pg", "0.5", "--ps", "0.5", "--format", "json"]

    @pytest.mark.parametrize("argv", [
        ["bounds", MIXED, "--bipartite", "C", "D"],
        ["bounds", MIXED, "--bipartite", "A", "C", "--unit", "channel-use"],
        ["bounds", MIXED, "--multipair", "--objective", "worst"],
        ["bounds", MIXED, "--multipartite", "--unit", "fixed-q"],
        ["chain", "analytic", *GRID],
        ["chain", "track", *GRID],
        ["chain", "markov", *GRID],
        ["chain", "mc", *GRID, "--samples", "50"],
        ["chain", "des", *GRID, "--samples", "50"],
        ["compare", *GRID],
        ["simulate", *GRID, "--samples", "20", "--trace-hash"]],
        ids=lambda argv: "-".join(argv[:2]) if argv[0] == "chain"
        else argv[0] + "-" + argv[2].lstrip("-"))
    def test_every_json_form_is_strict(self, argv, tmp_path):
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        _strict_json(out.read_text())

    def test_infinities_are_strings(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["bounds", MIXED, "--bipartite", "C", "D",
                     "--out", str(out)]) == 0
        report = _strict_json(out.read_text())
        assert report["lower"] == report["upper"] == "inf"
        assert main(["chain", "analytic", *self.GRID,
                     "--out", str(out)]) == 0
        assert _strict_json(out.read_text())[0]["t_coh"] == "inf"

    def test_nan_fails_loudly(self, monkeypatch, tmp_path, capsys):
        engine = _ENGINES["analytic"]
        monkeypatch.setitem(_ENGINES, "analytic", engine._replace(
            run=lambda params, args: {**engine.run(params, args),
                                      "mean_t": math.nan}))
        out = tmp_path / "out.json"
        assert main(["chain", "analytic", *self.GRID,
                     "--out", str(out)]) == 3
        assert not out.exists()
        assert "JSON" in capsys.readouterr().err


class TestRepeatedCalls:
    MC = ["chain", "mc", "--n", "1", "--pg", "0.5", "--samples", "50"]

    def test_parser_is_built_once(self, capsys):
        main(self.MC)
        before = cli._build_parser.cache_info()
        main(self.MC)
        main(["compare", "--n", "1", "--pg", "0.5"])
        after = cli._build_parser.cache_info()
        assert after.misses == before.misses == 1
        assert after.hits == before.hits + 2

    def test_given_option_does_not_stick(self, capsys):
        main(self.MC + ["--seed", "3"])
        seeded = capsys.readouterr().out
        main(self.MC)
        default = capsys.readouterr().out
        main(self.MC + ["--seed", "0"])
        assert default == capsys.readouterr().out
        assert default != seeded

    def test_shared_defaults_stay_unmutated(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["compare", "--n", "1", "--pg", "0.5"]) == 0
            assert main(self.MC) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        args = cli._build_parser().parse_args(self.MC)
        assert (args.seed, args.tcoh, args.w0) == (None, None, None)
