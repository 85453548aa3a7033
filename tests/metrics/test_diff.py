"""Cross-run diff: spec grammar, the exact-sum attribution invariant,
and two documented config pairs through the live simulator."""

import json

import pytest

from repro.metrics.diff import (
    CATEGORIES,
    DiffError,
    DiffSpec,
    diff_runs,
    diff_specs,
    parse_spec,
    render_diff,
)
from repro.simlab import ResultCache
from repro.telemetry.recorder import BUSY, IDLE, STALL_STATES


class TestSpecGrammar:
    def test_defaults(self):
        spec = parse_spec("vadd")
        assert spec == DiffSpec("vadd", level="hand", mem="l2perfect")
        assert spec.label == "vadd@hand/l2perfect"

    def test_full_grammar(self):
        spec = parse_spec("sha@tcc/nuca+fast_path-dep_predictor_enabled")
        assert spec.level == "tcc" and spec.mem == "nuca"
        assert spec.toggles == (("fast_path", True),
                                ("dep_predictor_enabled", False))
        config = spec.config()
        assert config.perfect_l2 is False
        assert config.fast_path is True
        assert config.dep_predictor_enabled is False

    def test_unknown_workload_rejected(self):
        with pytest.raises(DiffError, match="unknown workload"):
            parse_spec("warp_drive")

    def test_unknown_flag_rejected(self):
        with pytest.raises(DiffError, match="not a boolean"):
            parse_spec("vadd+antigravity")

    def test_removed_engine_flag_rejected(self):
        """The event wheel is part of the fast path, not a knob."""
        with pytest.raises(DiffError,
                           match="is not a boolean TripsConfig field"):
            parse_spec("vadd@hand+event_wheel")

    def test_malformed_spec_rejected(self):
        with pytest.raises(DiffError, match="bad diff spec"):
            parse_spec("vadd@turbo")


def _synthetic_result(cycles, tiles):
    """A minimal simlab trips+telemetry result for two fake tiles."""
    summary = {"cycles": cycles, "tiles": tiles,
               "stall_totals": {}, "busy_cycles": 0, "idle_cycles": 0,
               "blocks": {}, "block_phases": {},
               "opn": {"links": {"0,0:E": 10 * cycles}},
               "ocn": {}, "dram": {},
               "fast_forward": {"cycles": 0, "spans": 0}}
    stats = {"cycles": cycles, "insts_committed": 4 * cycles,
             "blocks_committed": 7, "blocks_flushed": 1}
    return {"kind": "trips", "name": "fake", "level": "hand",
            "stats": stats, "telemetry": summary}


def _tile(busy, waiting, idle):
    states = {state: 0 for state in CATEGORIES}
    states[BUSY] = busy
    states["waiting_operand"] = waiting
    states[IDLE] = idle
    return states


class TestSyntheticDiff:
    def _report(self):
        a = _synthetic_result(100, {"E0": _tile(60, 30, 10),
                                    "E1": _tile(40, 10, 50)})
        b = _synthetic_result(110, {"E0": _tile(60, 45, 5),
                                    "E1": _tile(40, 20, 50)})
        return diff_runs(a, b, "a-label", "b-label")

    def test_attribution_sums_exactly(self):
        report = self._report()
        assert report["delta_cycles"] == 10
        assert report["n_tiles"] == 2
        total = sum(row["delta_tile_cycles"]
                    for row in report["attribution"])
        assert total == report["n_tiles"] * report["delta_cycles"]
        # displayed per-tile-average column + residual == total delta
        shown = sum(row["delta_cycles"] for row in report["attribution"])
        assert shown + report["residual"] \
            == pytest.approx(report["delta_cycles"])

    def test_pinned_rendering(self):
        text = render_diff(self._report())
        assert "a-label  →  b-label" in text
        assert "Δ +10 cycles (+10.0%)" in text
        lines = text.splitlines()
        waiting = next(line for line in lines
                       if line.startswith("waiting_operand"))
        assert "+25" in waiting          # (45-30)+(20-10) tile-cycles
        assert "+12.5" in waiting        # /2 tiles
        assert any(line.startswith("total") and "+20" in line
                   and "+10.0" in line for line in lines)
        assert any(line.startswith("residual") for line in lines)

    def test_report_is_json_native(self):
        report = self._report()
        assert json.loads(json.dumps(report)) == report

    def test_categories_cover_the_taxonomy(self):
        assert CATEGORIES == (BUSY,) + STALL_STATES + (IDLE,)
        report = self._report()
        assert [row["category"] for row in report["attribution"]] \
            == list(CATEGORIES)

    def test_missing_telemetry_rejected(self):
        a = _synthetic_result(100, {"E0": _tile(60, 30, 10)})
        b = {"kind": "trips", "stats": {"cycles": 1}}
        with pytest.raises(DiffError, match="no telemetry"):
            diff_runs(a, b, "a", "b")

    def test_unbalanced_accounting_rejected(self):
        a = _synthetic_result(100, {"E0": _tile(60, 30, 10)})
        b = _synthetic_result(100, {"E0": _tile(60, 30, 5)})   # 95 != 100
        with pytest.raises(DiffError, match="does not sum"):
            diff_runs(a, b, "a", "b")

    def test_mismatched_tiles_rejected(self):
        a = _synthetic_result(100, {"E0": _tile(60, 30, 10)})
        b = _synthetic_result(100, {"E0": _tile(60, 30, 10),
                                    "E1": _tile(50, 30, 20)})
        with pytest.raises(DiffError, match="tile sets differ"):
            diff_runs(a, b, "a", "b")


class TestLivePairs:
    """The two documented pairs from EXPERIMENTS.md, end to end."""

    def test_l2perfect_vs_nuca(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        report = diff_specs("vadd@hand/l2perfect", "vadd@hand/nuca",
                            cache=cache)
        # NUCA only adds latency: the candidate must be slower, and the
        # memory categories must absorb a real share of the delta
        assert report["delta_cycles"] > 0
        by_cat = {row["category"]: row["delta_tile_cycles"]
                  for row in report["attribution"]}
        assert by_cat["cache_miss"] > 0
        assert sum(by_cat.values()) \
            == report["n_tiles"] * report["delta_cycles"]
        # and the OCN actually moved traffic
        assert any(row["delta_flits"] > 0 for row in report["links"]["ocn"])

    def test_fast_path_toggle(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        report = diff_specs("vadd@hand+fast_path",
                            "vadd@hand-fast_path", cache=cache)
        by_cat = {row["category"]: row["delta_tile_cycles"]
                  for row in report["attribution"]}
        # the fast engine and the full-scan reference are cycle-identical
        assert report["delta_cycles"] == 0
        assert all(delta == 0 for delta in by_cat.values())

    def test_identical_specs_diff_to_zero(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        report = diff_specs("vadd", "vadd", cache=cache)
        assert report["delta_cycles"] == 0
        assert all(row["delta_tile_cycles"] == 0
                   for row in report["attribution"])
        assert report["residual"] == 0
