"""Tests of the benchmark itself, at smoke size (a few seconds a workload).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)


def run_cli(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def smoke_run(workload: str, trace: int):
    """One smoke run of the CLI, shared by the tests that read it."""
    return run_cli(*smoke_args(workload, trace))


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def smoke_args(workload: str, trace: int = 0):
    return ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke"]


#: per-layer metrics that are non-zero on exactly these workloads: the
#: layer split each workload was chosen for
ONLY_ON = {
    "sysmem.requests": {"detail-mem"},
    "ocn.injected": {"detail-mem"},
    "ffwd.blocks": {"sampled"},
    "phases.k": {"sampled"},
    "checkpoint.taken": {"sampled"},
    "windows.engine_s": {"sampled"},
    "sampled_cycles_err_pct": {"sampled"},
    "compile.calls": {"table3"},
    "interp.s": {"table3"},
    "baseline.s": {"table3"},
    "trace.s": {"table3"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = smoke_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
        return
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, workloads in ONLY_ON.items():
        assert (metrics[name] > 0) == (workload in workloads), name


def skipped_share(workload: str) -> float:
    metrics = last_json(smoke_run(workload, 1).stdout)["metrics"]
    skipped = metrics["proc.skipped_cycles"]["value"]
    return skipped / (skipped + metrics["proc.steps"]["value"])


def test_idle_skip_works_on_detail_mem_not_detail_compute():
    assert skipped_share("detail-mem") > 2 * skipped_share("detail-compute")


def corrupted(original):
    """extract_outputs with the first output's value flipped."""
    def extract_outputs(self, regs, memory):
        (name, value), *rest = original(self, regs, memory)
        if isinstance(value, tuple):
            value = (value[0] ^ 1,) + value[1:]
        else:
            value ^= 1
        return ((name, value), *rest)
    return extract_outputs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, monkeypatch, capsys):
    sys.path.insert(0, str(bench.SRC))
    from repro.compiler.lower import CompiledProgram
    monkeypatch.setattr(CompiledProgram, "extract_outputs",
                        corrupted(CompiledProgram.extract_outputs))
    assert bench.main(smoke_args(workload)) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_stats_digest_mismatch_is_reported_by_name(tmp_path, monkeypatch,
                                                   capsys):
    reference = json.loads(bench.REFERENCE_FILE.read_text())
    digests = reference["smoke"]["detail-compute"]["digests"]
    label = next(iter(digests))
    digests[label] = "0" * 64
    fake = tmp_path / "reference.json"
    fake.write_text(json.dumps(reference))
    monkeypatch.setattr(bench, "REFERENCE_FILE", fake)
    assert bench.main(smoke_args("detail-compute")) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert result["correct"] is False and result["failed"] == 0
    assert f"stats digest mismatch: detail-compute / {label}" in out


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(*smoke_args("detail-mem"), cwd=tmp_path,
                   script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
