"""Fast-path engine equivalence: every workload, byte-identical stats.

The fast-path cycle engine (active-set mesh stepping, express routing,
pending-set deliveries, activity-gated tile ticks, the event wheel's
jump to the next per-component wakeup) must be
*cycle-for-cycle identical* to the original engine that
``TripsConfig.fast_path=False`` preserves.  These tests compare the full
``ProcStats`` record — cycle counts, flush counts, network statistics,
everything — for every registered workload at both code levels, plus the
NUCA memory-system configuration and the dual-core chip.
"""

import pytest

from repro.chip import TripsChip
from repro.compiler import compile_tir
from repro.uarch.config import TripsConfig
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload
from repro.workloads.registry import HAND_OPTIMIZED, workload_names

_CASES = [(name, "tcc") for name in workload_names()] + \
         [(name, "hand") for name in workload_names()
          if name in HAND_OPTIMIZED]


def _run(program, **overrides):
    proc = TripsProcessor(program, config=TripsConfig(**overrides))
    return proc.run().to_dict()


@pytest.mark.parametrize("name,level", _CASES,
                         ids=[f"{n}-{lv}" for n, lv in _CASES])
def test_stats_identical_both_engines(name, level):
    program = compile_tir(get_workload(name), level=level).program
    fast = _run(program, fast_path=True)
    slow = _run(program, fast_path=False)
    assert fast == slow


@pytest.mark.parametrize("name", ["vadd", "sha"])
def test_nuca_stats_identical_both_engines(name):
    """perfect_l2=False exercises the OCN + fast-forward to fills."""
    program = compile_tir(get_workload(name), level="hand").program
    fast = _run(program, fast_path=True, perfect_l2=False)
    slow = _run(program, fast_path=False, perfect_l2=False)
    assert fast == slow


def test_chip_dual_core_identical_both_engines():
    from repro.tir import Assign, For, TirProgram, V

    p0 = compile_tir(get_workload("vadd"), level="hand",
                     base=0x1000, data_base=0x100000)
    prog1 = TirProgram(
        "adder", scalars={"acc": 0},
        body=[For("i", 0, 20, 1, [Assign("acc", V("acc") + V("i"))])],
        outputs=["acc"])
    p1 = compile_tir(prog1, level="hand", base=0x40000, data_base=0x180000)

    def run_chip(fast_path):
        config = TripsConfig(fast_path=fast_path)
        chip = TripsChip(p0.program, p1.program, config=config)
        stats = chip.run()
        return ([core.to_dict() for core in stats.per_core],
                chip.cycle, stats.ocn_requests)

    assert run_chip(True) == run_chip(False)


def test_fast_path_deterministic():
    """Back-to-back fast-path runs produce identical stats."""
    program = compile_tir(get_workload("qr"), level="hand").program
    assert _run(program, fast_path=True) == _run(program, fast_path=True)
