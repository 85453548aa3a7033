#!/usr/bin/env python3
"""Benchmark of the TRIPS simulator: host time next to modelled results.

Run from the repository root (pure Python, nothing to build):

    python3 perfbench/run.py --workload detail-mem --seed 1 --seconds 30 --trace 0

Workloads (their reasons are in BENCHMARK.json): ``detail-mem``,
``detail-compute``, ``sampled``, ``table3``.  Each is a closed loop: one
simulation job at a time, the next started when the previous one ends,
repeated until ``--seconds`` is spent.  Every repetition is timed between
two runs of the host-speed calibration (calibrate.py).

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run: repetitions without instrumentation for a
third of the budget, then the same repetitions under cProfile, reporting
the per-layer metrics of BENCHMARK.json, grouped into layers as
perfbench/layers.json says, and the tracing overhead.
``--smoke`` shrinks every workload so that a run takes seconds
(perfbench/test_smoke.py).

Every job's architectural outputs are checked against the TIR
interpreter; a divergence or an exception is a failed operation.  The
modelled statistics of every job are hashed and compared with
perfbench/reference.json, and a mismatch is reported by name.  The lines
above the last one are a readable report with provenance; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import cProfile
import copy
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from calibrate import REFERENCE_S, time_calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference.json"
CONTRACT_FILE = ROOT / "BENCHMARK.json"

#: a run never measures past this, whatever --seconds says, so that it
#: ends well inside the 180 s a run may take
HARD_CAP_S = 120.0


# ----------------------------------------------------------------------
# helpers
def digest(record) -> str:
    """sha256 of a JSON-able record, keys sorted."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def fresh_program(compiled):
    """A new Program object sharing ``compiled``'s blocks.  The engine
    caches decoded blocks per Program object, so a repetition on the same
    object would skip the decoding that every real run pays."""
    return copy.copy(compiled.program)


def _fail(label: str, exc: BaseException) -> str:
    traceback.print_exception(type(exc), exc, exc.__traceback__,
                              file=sys.stderr)
    return f"{label}: {type(exc).__name__}: {exc}"


@dataclass
class Rep:
    """One timed repetition of a workload."""

    seconds: float
    #: ``seconds`` scaled to the reference host speed (calibrate.py)
    calibrated: float = 0.0
    jobs: int = 1
    failures: List[str] = field(default_factory=list)
    cycles: float = 0.0
    insts: float = 0.0
    blocks: float = 0.0
    #: job label -> sha256 of its modelled statistics
    digests: Dict[str, str] = field(default_factory=dict)
    #: sampled only: the sampler's estimate for this repetition
    sampled: Optional[dict] = None
    #: table3 only: committed instructions of the OoO baseline jobs
    baseline_insts: int = 0


# ----------------------------------------------------------------------
# workloads
class Detailed:
    """One program run fully cycle-accurate, caches cold at every run."""

    min_reps = 3
    rep_multiple = 1
    setup_reps = 5
    caches = ("cold: every run builds a fresh TripsProcessor on a fresh "
              "Program, so caches, predictor, LSQ and the host-side block "
              "decode cache start empty")

    def __init__(self, program: str, size: int, perfect_l2: bool):
        self.program = program
        self.size = size
        self.perfect_l2 = perfect_l2
        memory = "perfect L2" if perfect_l2 else "NUCA L2 + SDRAM"
        self.label = f"{program}@tcc size {size} ({memory})"
        self.seed_note = "fixed program: the seed does not change results"

    def setup(self):
        from repro.compiler import compile_tir
        from repro.tir import interpret
        from repro.workloads import get_workload
        tir = get_workload(self.program, size=self.size)
        compiled = compile_tir(tir, level="tcc")
        golden = interpret(tir).output_signature(tir.outputs)
        return compiled, golden

    def rep(self, state, k: int, on_job=None) -> Rep:
        from repro.uarch.config import TripsConfig
        from repro.uarch.proc import TripsProcessor
        compiled, golden = state
        config = TripsConfig(perfect_l2=self.perfect_l2)
        program = fresh_program(compiled)
        start = time.perf_counter()
        try:
            proc = TripsProcessor(program, config=config)
            stats = proc.run()
        except Exception as exc:        # ProcError included: one failed op
            return Rep(time.perf_counter() - start,
                       failures=[_fail(self.label, exc)])
        seconds = time.perf_counter() - start
        rep = Rep(seconds, cycles=stats.cycles, insts=stats.insts_committed,
                  blocks=stats.blocks_committed,
                  digests={self.label: digest(stats.to_dict())})
        if compiled.extract_outputs(proc.regs, proc.memory) != golden:
            rep.failures.append(f"{self.label}: outputs diverge from "
                                "interpret()")
        return rep


#: the sampler's phase seeds every sampled run covers; the run's --seed
#: only rotates where in this list it starts
PHASE_SEEDS = (1, 2, 3, 4)


class Sampled:
    """mcf through run_sampled_program with the mcf sampling geometry of
    the sbench roster: phase clustering on, warm_horizon=2000."""

    setup_reps = 3
    caches = ("warm: detailed windows start from checkpoints whose caches "
              "and predictor the fast-forwarder warmed; the host-side block "
              "decode cache starts empty at every run")

    def __init__(self, size: int, seed: int, geometry: dict):
        from repro.sampling import SamplingConfig
        self.size = size
        self.seed = seed
        self.geometry = SamplingConfig(**geometry)
        self.min_reps = self.rep_multiple = len(PHASE_SEEDS)
        self.label = f"mcf@tcc size {size} sampled"
        self.seed_note = (f"the seed rotates the order of phase seeds "
                          f"{list(PHASE_SEEDS)}; every run covers all of "
                          "them, so results do not depend on it")

    def setup(self):
        return Detailed("mcf", self.size, True).setup()

    def phase_seed(self, k: int) -> int:
        return PHASE_SEEDS[(self.seed + k) % len(PHASE_SEEDS)]

    def rep(self, state, k: int, on_job=None) -> Rep:
        from repro.sampling import run_sampled_program
        from repro.uarch.config import TripsConfig
        compiled, golden = state
        phase_seed = self.phase_seed(k)
        sampling = replace(self.geometry, phase_seed=phase_seed)
        label = f"{self.label} phase_seed={phase_seed}"
        program = fresh_program(compiled)
        start = time.perf_counter()
        try:
            sampled, ff, _ = run_sampled_program(
                program, config=TripsConfig(), sampling=sampling)
        except Exception as exc:
            return Rep(time.perf_counter() - start,
                       failures=[_fail(label, exc)])
        seconds = time.perf_counter() - start
        rep = Rep(seconds, cycles=sampled.cycles_est,
                  insts=sampled.ipc_est * sampled.cycles_est,
                  blocks=sampled.blocks_total,
                  digests={label: digest(sampled.to_dict())},
                  sampled={"phase_seed": phase_seed,
                           "cycles_est": sampled.cycles_est,
                           "cycles_ci": sampled.cycles_ci,
                           "ipc_est": sampled.ipc_est,
                           "windows": sampled.windows,
                           "phases": sampled.phases,
                           "coverage": sampled.measured_blocks
                           / sampled.blocks_total})
        if compiled.extract_outputs(ff.regs, ff.memory) != golden:
            rep.failures.append(f"{label}: outputs diverge from interpret()")
        return rep


class Table3:
    """table3_rows() over a fixed subset of the Table-3 programs, serial
    and uncached; one operation is one simlab job."""

    min_reps = 2
    rep_multiple = 1
    setup_reps = 3
    caches = "cold: every job builds a fresh simulator"

    def __init__(self, workloads):
        self.workloads = list(workloads)
        self.label = f"table3_rows over {len(self.workloads)} programs"
        self.seed_note = "fixed programs: the seed does not change results"

    def setup(self):
        from repro.compiler import compile_tir
        from repro.tir import interpret
        from repro.workloads import get_workload
        from repro.workloads.registry import HAND_OPTIMIZED
        for name in self.workloads:
            tir = get_workload(name)
            for level in ("tcc", "hand") if name in HAND_OPTIMIZED \
                    else ("tcc",):
                compile_tir(tir, level=level)
            interpret(tir)
        return None

    def rep(self, state, k: int, on_job=None) -> Rep:
        from repro.harness.tables import table3_rows
        from repro.simlab import executor
        jobs = {}
        real = executor.execute_spec

        def execute_spec(spec):
            try:
                result = real(spec)
            except Exception as exc:
                jobs[spec.label] = exc
                raise
            jobs[spec.label] = result
            if on_job is not None:
                on_job()
            return result

        executor.execute_spec = execute_spec
        start = time.perf_counter()
        try:
            table3_rows(self.workloads, workers=0, cache=None)
            error = None
        except Exception as exc:
            error = exc
        finally:
            seconds = time.perf_counter() - start
            executor.execute_spec = real
        rep = Rep(seconds, jobs=max(1, len(jobs)))
        for label, result in jobs.items():
            if isinstance(result, BaseException):
                rep.failures.append(_fail(label, result))
                continue
            stats = result["stats"]
            rep.digests[label] = digest(result)
            if result["kind"] == "trips":
                rep.cycles += stats["cycles"]
                rep.insts += stats["insts_committed"]
                rep.blocks += stats["blocks_committed"]
            else:
                rep.baseline_insts += stats["instructions"]
        if error is not None and not rep.failures:
            rep.failures.append(_fail("table3_rows", error))
        return rep


#: the Table-3 subset: every suite, hand and tcc levels, the OoO
#: baseline, trace + critical path; about a fifteenth of the full table
TABLE3_WORKLOADS = (
    "vadd", "qr", "svd", "a2time01", "basefp01", "mcf", "guarded_slots_phi",
    "ifconv_block_limit", "srisc_addr_cse", "wheel_deferred_wake")

#: the mcf geometry of the sbench full roster (repro.harness.sbench),
#: pinned here so that the benchmark does not move when the roster does
SAMPLED_GEOMETRY = dict(interval_blocks=8000, warmup_blocks=100,
                        measure_blocks=150, clustering=True,
                        phase_windows=14, warm_horizon=2000)
SMOKE_SAMPLED_GEOMETRY = dict(interval_blocks=1200, warmup_blocks=60,
                              measure_blocks=100, clustering=True,
                              phase_windows=12, warm_horizon=600)


def make_workload(name: str, seed: int, smoke: bool):
    if name == "detail-mem":
        return Detailed("mcf", 1 if smoke else 2, perfect_l2=False)
    if name == "detail-compute":
        return Detailed("bezier02", 1 if smoke else 8, perfect_l2=True)
    if name == "sampled":
        return Sampled(48, seed, SMOKE_SAMPLED_GEOMETRY) if smoke \
            else Sampled(512, seed, SAMPLED_GEOMETRY)
    if name == "table3":
        return Table3(("vadd", "svd") if smoke else TABLE3_WORKLOADS)
    raise SystemExit(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# measurement
class Calibrated:
    """Times calls, each scaled by the calibration runs around it."""

    def __init__(self):
        self.before = time_calibration()

    def scale(self, seconds: float) -> float:
        after = time_calibration()
        scaled = seconds * REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return scaled


def time_setup(workload) -> tuple:
    """Set up ``setup_reps`` times; return the last state and the
    calibrated times."""
    clock = Calibrated()
    times = []
    state = None
    for _ in range(workload.setup_reps):
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        times.append(clock.scale(time.perf_counter() - start))
    return state, times


def run_reps(workload, state, budget: float, min_reps: int,
             max_reps: Optional[int] = None, multiple: int = 1,
             on_job: Optional[Callable[[], None]] = None,
             profile: Optional[cProfile.Profile] = None) -> List[Rep]:
    """Closed loop: repetitions back to back, at least ``min_reps``, then
    more, ``multiple`` at a time, while they still fit in ``budget`` (and
    at most ``max_reps``).  ``profile``, when given, is enabled around the
    repetitions only, not around the calibration between them."""
    clock = Calibrated()
    reps: List[Rep] = []
    start = time.perf_counter()
    while max_reps is None or len(reps) < max_reps:
        gc.collect()
        if profile is not None:
            profile.enable()
        rep = workload.rep(state, len(reps), on_job)
        if profile is not None:
            profile.disable()
        rep.calibrated = clock.scale(rep.seconds)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_CAP_S:
            break
        if len(reps) >= min_reps and len(reps) % multiple == 0 \
                and elapsed * (1 + multiple / len(reps)) > budget:
            break
    return reps


def check_digests(profile: str, name: str, reps: List[Rep]) -> List[str]:
    """Every job's stats digest against perfbench/reference.json."""
    try:
        recorded = json.loads(REFERENCE_FILE.read_text())[profile][name][
            "digests"]
    except (OSError, KeyError, ValueError):
        recorded = {}
    mismatches = []
    for rep in reps:
        for label, value in rep.digests.items():
            want = recorded.get(label)
            if value != want:
                line = (f"stats digest mismatch: {name} / {label}: "
                        f"expected {want or 'no recorded digest'}, "
                        f"got {value}")
                if line not in mismatches:
                    mismatches.append(line)
    return mismatches


def sampler_accuracy(profile: str, reps: List[Rep]) -> Dict[str, float]:
    """Mean estimate, mean |error| against the full detailed run, and
    mean CI half-width, over the distinct phase seeds of ``reps``."""
    per_seed = {rep.sampled["phase_seed"]: rep.sampled
                for rep in reps if rep.sampled}
    if not per_seed:
        return {}
    full = json.loads(REFERENCE_FILE.read_text())[profile]["sampled"][
        "full_detailed_cycles"]
    runs = list(per_seed.values())
    n = len(runs)
    return {
        "cycles": sum(r["cycles_est"] for r in runs) / n,
        "ipc": sum(r["ipc_est"] for r in runs) / n,
        "full_cycles": full,
        "err_pct": sum(abs(r["cycles_est"] - full) / full * 100
                       for r in runs) / n,
        "ci_pct": sum(r["cycles_ci"] / r["cycles_est"] * 100
                      for r in runs) / n,
        "per_seed": {seed: {"err_pct": (r["cycles_est"] - full) / full * 100,
                            "ci_pct": r["cycles_ci"] / r["cycles_est"] * 100}
                     for seed, r in sorted(per_seed.items())},
        "windows": sum(r["windows"] for r in runs) / n,
        "phases": sum(r["phases"] for r in runs) / n,
        "coverage": sum(r["coverage"] for r in runs) / n,
    }


def end_to_end(reps: List[Rep], setup_times: List[float],
               accuracy: Dict[str, float]) -> Dict[str, float]:
    wall = statistics.median(rep.calibrated for rep in reps)
    if accuracy:
        cycles, ipc = accuracy["cycles"], accuracy["ipc"]
    else:
        cycles = reps[0].cycles
        ipc = reps[0].insts / cycles if cycles else 0.0
    blocks = reps[0].blocks
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "sim_kcycles_per_s": cycles / wall / 1e3,
        "sim_kblocks_per_s": blocks / wall / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "sim_cycles": cycles,
        "ipc": ipc,
    }


def traced(workload, state, seconds: float) -> tuple:
    """The per-layer run: repetitions without instrumentation for a third
    of the budget, then the same repetitions under cProfile."""
    from profiling import Probe, ProfileView, layer_metrics
    base = run_reps(workload, state, seconds / 3, workload.min_reps)
    profile = cProfile.Profile()
    with Probe() as probe:
        traced_reps = run_reps(workload, state, seconds * 2 / 3, 1,
                               max_reps=len(base), on_job=probe.harvest,
                               profile=profile)
    n = len(traced_reps)
    metrics = layer_metrics(ProfileView(profile, SRC), probe.counts, n)
    untraced_s = sum(rep.calibrated for rep in base[:n])
    metrics["trace.overhead_pct"] = \
        (sum(rep.calibrated for rep in traced_reps) / untraced_s - 1) * 100
    metrics["baseline.insts"] = sum(r.baseline_insts for r in traced_reps) / n
    return base, traced_reps, metrics


# ----------------------------------------------------------------------
def provenance(args) -> dict:
    from repro.simlab.spec import code_fingerprint
    return {"git_rev": git_rev(), "source_sha": code_fingerprint(),
            "host": platform.node(), "platform": platform.platform(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("detail-mem", "detail-compute", "sampled",
                                 "table3"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload in seconds")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    profile = "smoke" if args.smoke else "full"
    workload = make_workload(args.workload, args.seed, args.smoke)
    state, setup_times = time_setup(workload)
    if args.trace:
        reps, traced_reps, layer = traced(workload, state, args.seconds)
        checked = reps + traced_reps
    else:
        reps = run_reps(workload, state, args.seconds, workload.min_reps,
                        multiple=workload.rep_multiple)
        checked = reps
    failures = [line for rep in checked for line in rep.failures]
    mismatches = check_digests(profile, args.workload, checked)
    accuracy = sampler_accuracy(profile, reps)
    attempted = sum(rep.jobs for rep in checked)

    if args.trace:
        layer["sampled_cycles_err_pct"] = accuracy.get("err_pct", 0.0)
        layer["sampled_ci_pct"] = accuracy.get("ci_pct", 0.0)
        if accuracy:
            layer["phases.k"] = accuracy["phases"]
            layer["windows.count"] = accuracy["windows"]
            layer["windows.coverage"] = accuracy["coverage"]
        values = layer
    else:
        values = end_to_end(reps, setup_times, accuracy)
    declared = json.loads(CONTRACT_FILE.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}

    report = {
        "workload": args.workload, "program": workload.label,
        "provenance": provenance(args),
        "caches": workload.caches, "seed_effect": workload.seed_note,
        "loop": "closed: one job at a time, single process",
        "model_validation": "unvalidated against hardware; the only "
                            "accuracy figure is sampled vs. detailed",
        "reps": len(reps),
        "rep_seconds": [r.seconds for r in reps],
        "rep_calibrated_s": [r.calibrated for r in reps],
        "setup_calibrated_s": setup_times,
        "sampler": accuracy or None,
        "failures": failures, "digest_mismatches": mismatches,
    }
    print("perfbench report " + json.dumps(report))
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    for line in failures + mismatches:
        print("  " + line)
    print(json.dumps({"correct": not failures and not mismatches,
                      "attempted": attempted,
                      "failed": sum(len(rep.failures) for rep in checked),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
