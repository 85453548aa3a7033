"""--baseline for both reports: the one comparator's triggers, matching,
skipping.

The geomean gate, case matching and the cross-host note are checked on
both report kinds (each test loops over them): engine rows keyed
(workload, level, mem) and gated on ``fast_kcycles_per_s``, sampling
rows keyed (workload, size, level) and gated on ``effective_speedup``.
Realized-error growth is sbench's own per-case trigger.
"""

import json
from pathlib import Path

import pytest

from repro.harness.bench import (ENGINE_RULE, REGRESSION_THRESHOLD,
                                 compare_to_baseline)
from repro.harness.sbench import ERROR_TARGET_PCT, SAMPLING_RULE

ROOT = Path(__file__).resolve().parents[2]

#: per report kind: its rule and the row fields besides workload/metric
KINDS = {
    "engine": (ENGINE_RULE, {"level": "tcc", "mem": "nuca"}),
    "sampling": (SAMPLING_RULE, {"size": 512, "level": "tcc",
                                 "cycles_err_pct": 0.5}),
}


def _row(kind, workload="mcf", value=25.0, **fields):
    rule, defaults = KINDS[kind]
    return {"workload": workload, **defaults, rule.metric: value, **fields}


def _compare(kind, report, base, **kwargs):
    return compare_to_baseline(report, base, KINDS[kind][0], **kwargs)


def _sampling_row(workload="mcf", size=512, speedup=25.0, err=0.5):
    return {"workload": workload, "size": size, "level": "tcc",
            "effective_speedup": speedup, "cycles_err_pct": err}


def test_speedup_drop_trips_the_verdict():
    for kind in KINDS:
        report = {"results": [_row(kind, value=17.0)]}
        base = {"results": [_row(kind, value=25.0)]}
        verdict = _compare(kind, report, base)
        assert verdict["geomean_ratio"] < REGRESSION_THRESHOLD
        assert verdict["regressed"] is True
        if kind == "sampling":
            assert verdict["error_growth_cases"] == []


def test_error_growth_trips_even_when_speedup_improves():
    report = {"results": [_sampling_row(speedup=40.0,
                                        err=ERROR_TARGET_PCT + 0.5)]}
    base = {"results": [_sampling_row(speedup=25.0, err=0.4)]}
    verdict = compare_to_baseline(report, base, SAMPLING_RULE)
    assert verdict["error_growth_cases"] == ["mcfx512@tcc"]
    assert verdict["regressed"] is True


def test_error_already_over_target_in_baseline_is_not_growth():
    # a case the baseline itself recorded beyond the target never
    # trips the growth trigger — it was never a promise
    report = {"results": [_sampling_row(err=ERROR_TARGET_PCT + 0.8)]}
    base = {"results": [_sampling_row(err=ERROR_TARGET_PCT + 0.9)]}
    verdict = compare_to_baseline(report, base, SAMPLING_RULE)
    assert verdict["error_growth_cases"] == []
    assert verdict["regressed"] is False


def test_within_threshold_passes():
    for kind in KINDS:
        report = {"results": [_row(kind, value=24.0),
                              _row(kind, "dct8x8", 30.0)]}
        base = {"results": [_row(kind, value=25.0),
                            _row(kind, "dct8x8", 29.0)]}
        verdict = _compare(kind, report, base)
        assert verdict["matched_cases"] == 2
        assert verdict["regressed"] is False


def test_unmatched_cases_skip_with_warning():
    for kind in KINDS:
        messages = []
        extra = _row(kind, "bezier02")
        if kind == "sampling":
            extra["size"] = 4096
        report = {"results": [_row(kind), extra]}
        base = {"results": [_row(kind)]}
        verdict = _compare(kind, report, base, log=messages.append)
        assert verdict["matched_cases"] == 1
        name = {"engine": "bezier02@tcc/nuca",
                "sampling": "bezier02x4096@tcc"}[kind]
        assert verdict["skipped"] == [name]
        assert any("skipped" in m for m in messages)


def test_every_key_field_must_match():
    for kind in KINDS:
        # same workload, different memory system / input size: not a match
        other = {"engine": {"mem": "l2perfect"},
                 "sampling": {"size": 48}}[kind]
        report = {"results": [_row(kind, **other)]}
        base = {"results": [_row(kind)]}
        verdict = _compare(kind, report, base)
        assert verdict["matched_cases"] == 0
        assert verdict["geomean_ratio"] is None
        assert verdict["regressed"] is False


def test_cross_host_note_is_logged():
    for kind in KINDS:
        messages = []
        report = {"host": "a", "results": [_row(kind)]}
        base = {"host": "b", "results": [_row(kind)]}
        _compare(kind, report, base, log=messages.append)
        assert any("host" in m for m in messages)


def test_verdict_rows_carry_the_baseline_value():
    for kind in KINDS:
        rule = KINDS[kind][0]
        verdict = _compare(kind, {"results": [_row(kind, value=20.0)]},
                           {"results": [_row(kind, value=25.0)]})
        (row,) = verdict["rows"]
        assert row[f"baseline_{rule.metric}"] == 25.0
        assert row[rule.metric] == 20.0
        assert row["ratio"] == 0.8


@pytest.mark.parametrize("path,rule", [("BENCH_engine.json", ENGINE_RULE),
                                       ("BENCH_sampling.json",
                                        SAMPLING_RULE)])
def test_checked_in_report_is_its_own_baseline(path, rule):
    report = json.loads((ROOT / path).read_text())
    verdict = compare_to_baseline(report, report, rule)
    assert verdict["matched_cases"] == report["cases"]
    assert verdict["skipped"] == []
    assert verdict["geomean_ratio"] == 1.0
    assert verdict["regressed"] is False
