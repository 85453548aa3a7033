"""``python -m repro.harness`` CLI, including the ``--json`` mode."""

import itertools
import json

from repro.harness import bench
from repro.harness.__main__ import main


class TestRunCommand:
    def test_text_mode(self, capsys):
        assert main(["run", "vadd", "--level", "hand"]) == 0
        out = capsys.readouterr().out
        assert "vadd @ hand" in out and "blocks committed" in out

    def test_json_mode(self, capsys):
        assert main(["run", "vadd", "--level", "hand", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["name"] == "vadd"
        assert record["level"] == "hand"
        assert record["cycles"] == record["stats"]["cycles"] > 0
        assert record["stats"]["blocks_committed"] > 0

    def test_sampled_text_mode_reports_fast_forward_paths(self, capsys):
        assert main(["run", "mcf", "--size", "8", "--sample", "--phases",
                     "--interval", "400", "--warmup", "50", "--measure",
                     "100", "--warm-horizon", "100"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines()
                    if "fast-forward blocks:" in l)
        counts = dict(part.rsplit(" ", 1) for part in
                      line.split(": ", 1)[1].split(", "))
        assert list(counts) == ["region", "warm", "fallback", "teleported"]
        assert int(counts["region"]) > 0 and int(counts["warm"]) > 0


class TestTable3Command:
    def test_text_mode(self, capsys):
        assert main(["table3", "vadd"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "vadd" in out

    def test_json_mode_round_trips(self, capsys):
        assert main(["table3", "vadd", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["Benchmark"] == "vadd"
        assert rows[0]["Speedup Hand"] is not None

    def test_workers_and_cache_flags(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["table3", "vadd", "--json", "--workers", "2",
                     "--cache", cache_dir]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["table3", "vadd", "--json", "--workers", "0",
                     "--cache", cache_dir]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second


class TestOtherCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        assert "vadd" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "GT" in capsys.readouterr().out


class TestBenchCommand:
    """``bench --baseline`` exit codes.  The clock is faked so that every
    timed run takes exactly 10 ms: throughput is then a pure function of
    the simulated cycles, and the gate's verdict does not depend on host
    noise."""

    def _bench(self, monkeypatch, *args):
        ticks = itertools.count()
        monkeypatch.setattr(bench.time, "perf_counter",
                            lambda: next(ticks) * 0.01)
        return main(["bench", "vadd", "--repeat", "1", *args])

    def test_baseline_gate_exit_codes(self, tmp_path, monkeypatch, capsys):
        first = tmp_path / "first.json"
        assert self._bench(monkeypatch, "--out", str(first)) == 0
        # against itself: every matched case at x1.000
        again = tmp_path / "again.json"
        assert self._bench(monkeypatch, "--out", str(again),
                           "--baseline", str(first)) == 0
        verdict = json.loads(again.read_text())["baseline_delta"]
        assert verdict["matched_cases"] == 4    # tcc, hand x 2 memories
        assert verdict["geomean_ratio"] == 1.0
        # against a baseline twice as fast: geomean x0.5, below x0.90
        inflated = json.loads(first.read_text())
        for row in inflated["results"]:
            row["fast_kcycles_per_s"] *= 2
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(inflated))
        assert self._bench(monkeypatch, "--out", str(again),
                           "--baseline", str(fast)) == 1
        verdict = json.loads(again.read_text())["baseline_delta"]
        assert verdict["regressed"] is True
        assert "REGRESSION" in capsys.readouterr().err
