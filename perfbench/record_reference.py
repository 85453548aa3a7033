#!/usr/bin/env python3
"""Record perfbench/reference.json, which every benchmark run checks against.

    python3 perfbench/record_reference.py

It holds, per profile (full, smoke), the sha256 of the modelled statistics
of every job of every workload, and the cycle count of one full detailed
run of the sampled workload's program, against which the sampler's error
is measured.  Rerun it only in a change that means to alter modelled
statistics, and say so.  Both profiles are always recorded together, so
that neither is left stale.  The full profile takes about four minutes on a
2-CPU host, most of it the detailed mcf run at size 512.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run as bench

WORKLOADS = ("detail-mem", "detail-compute", "sampled", "table3")


def record(smoke: bool) -> dict:
    from repro.uarch.config import TripsConfig
    from repro.uarch.proc import TripsProcessor
    out = {}
    for name in WORKLOADS:
        workload = bench.make_workload(name, seed=0, smoke=smoke)
        state = workload.setup()
        reps = bench.run_reps(workload, state, 0, workload.min_reps,
                              max_reps=workload.min_reps)
        failures = [line for rep in reps for line in rep.failures]
        if failures:
            raise SystemExit("\n".join(failures))
        digests = {}
        for rep in reps:
            digests.update(rep.digests)
        out[name] = {"program": workload.label, "digests": digests}
        print(f"{name}: {len(digests)} digests", file=sys.stderr)

    workload = bench.make_workload("sampled", seed=0, smoke=smoke)
    compiled, golden = workload.setup()
    start = time.perf_counter()
    proc = TripsProcessor(compiled.program, config=TripsConfig())
    stats = proc.run()
    if compiled.extract_outputs(proc.regs, proc.memory) != golden:
        raise SystemExit("full detailed run diverges from interpret()")
    out["sampled"]["full_detailed_cycles"] = stats.cycles
    out["sampled"]["full_detailed_ipc"] = stats.ipc
    out["sampled"]["full_detailed_wall_s"] = round(
        time.perf_counter() - start, 1)
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path.insert(0, str(bench.SRC))
    from repro.simlab.spec import code_fingerprint
    reference = {}
    for profile in ("smoke", "full"):
        reference[profile] = record(profile == "smoke")
        reference[profile]["measured_at"] = {
            "git_rev": bench.git_rev(), "source_sha": code_fingerprint(),
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    bench.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
