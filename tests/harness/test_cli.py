"""``python -m repro.harness`` CLI, including the ``--json`` mode."""

import json

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
