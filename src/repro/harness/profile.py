"""cProfile-backed hot-function report for the simulation engine.

``python -m repro.harness profile <workload>`` compiles a workload, then
profiles *only* the simulation loop (``TripsProcessor.run``) — compile
and TIR construction are warmup, excluded from the numbers — and prints
the top-N functions by cumulative and by self time.  This is the
starting point for performance work: measure first, then optimize the
function the profile names, not the one intuition suspects.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Optional

from ..compiler import compile_tir
from ..uarch.config import TripsConfig
from ..uarch.proc import TripsProcessor
from ..workloads import get_workload


def profile_workload(workload: str, level: str = "tcc",
                     mem: str = "l2perfect", top: int = 25,
                     fast_path: Optional[bool] = None,
                     sort: str = "cumulative") -> str:
    """Profile one workload's simulation loop; returns the report text."""
    tir = get_workload(workload)
    program = compile_tir(tir, level=level).program
    config = TripsConfig(perfect_l2=(mem != "nuca"))
    if fast_path is not None:
        config = config.with_overrides(fast_path=fast_path)
    proc = TripsProcessor(program, config=config)

    profiler = cProfile.Profile()
    profiler.enable()
    stats = proc.run()
    profiler.disable()

    out = io.StringIO()
    out.write(f"{workload} @ {level} (mem={mem}, "
              f"fast_path={config.fast_path}): "
              f"{stats.cycles} cycles, "
              f"{stats.blocks_committed} blocks committed\n\n")
    ps = pstats.Stats(profiler, stream=out)
    ps.strip_dirs().sort_stats(sort).print_stats(top)
    if sort != "tottime":
        out.write("\n--- by self time ---\n")
        ps.sort_stats("tottime").print_stats(top)
    return out.getvalue()
