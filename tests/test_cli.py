import json

import pytest

from qnd.cli import main
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

    def test_unknown_node_exits_2(self, netfile, capsys):
        assert main(["bounds", netfile, "--bipartite", "A", "Z"]) == 2

    def test_failed_flow_verification_exits_3(self, netfile, monkeypatch,
                                              capsys):
        def reject(self, graph, tol=1e-7, shared_capacity=True):
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


class TestChain:
    def test_analytic_single_level(self, tmp_path, capsys):
        code = main(["chain", "analytic", "--n", "1",
                     "--pg", "0.5", "--ps", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["mean_t"]) == pytest.approx(16.0 / 3.0)

    def test_track_reports_captured_mass(self, capsys):
        code = main(["chain", "track", "--n", "2", "--pg", "0.5",
                     "--ps", "0.5", "--trunc", "2000"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["captured_mass"]) >= 1.0 - 1e-6

    def test_markov_one_step(self, capsys):
        code = main(["chain", "markov", "--n", "1", "--pg", "0.5",
                     "--ps", "0.5", "--swap-time", "one-step"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["mean_t"]) == pytest.approx(16.0 / 3.0 + 2.0)

    def test_markov_rejects_cutoff(self, capsys):
        assert main(["chain", "markov", "--n", "1", "--pg", "0.5",
                     "--cutoff", "5"]) == 3

    def test_analytic_rejects_distillation(self, capsys):
        assert main(["chain", "analytic", "--n", "1", "--pg", "0.5",
                     "--distill-rounds", "1"]) == 3

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

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        main(["chain", "analytic", "--n", "1", "--pg", "0.5",
              "--ps", "0.5", "--format", "json", "--out", str(out)])
        rows = json.loads(out.read_text())
        assert rows[0]["engine"] == "analytic"


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


class TestSimulate:
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


class TestUsage:
    def test_unknown_engine(self):
        assert main(["chain", "warp", "--n", "1", "--pg", "0.5"]) == 64

    def test_missing_required_flag(self):
        assert main(["chain", "track", "--pg", "0.5"]) == 64

    def test_bad_number_list(self):
        assert main(["chain", "track", "--n", "1", "--pg", "zero"]) == 64
