"""The pre-decoded GDN dispatch plan replays the per-event dispatch exactly.

``DecodedBlock`` groups a block's GDN arrivals (register-write
declarations, header reads, body instructions, and the dispatch-done
signal) by their cycle offset from ``dispatch_start``, and the processor
posts one calendar event per offset.  That is exact only if flattening
the plan gives the same (offset, action) sequence as posting one event
per action in the original loop order, because the calendar runs
same-cycle events in posting order.  The reference enumerator below is
that original loop, written against the raw ``TripsBlock``.
"""

import pytest

from repro.compiler import compile_tir
from repro.isa import OperandKind
from repro.uarch.proc import (GDN_DECL, GDN_DONE, GDN_INST, GDN_READ,
                              DecodedBlock)
from repro.workloads import get_workload
from repro.workloads.registry import HAND_OPTIMIZED, workload_names

_CASES = [(name, "tcc") for name in workload_names()] + \
         [(name, "hand") for name in workload_names()
          if name in HAND_OPTIMIZED]


def _reference_events(block):
    """One (offset, action) per GDN arrival, in the original posting
    order, stably sorted by offset as the per-cycle calendar runs them;
    the dispatch-done event is posted last, at the latest offset."""
    events = []
    last = 0
    writes_by_bank = [[] for _ in range(4)]
    for slot, write in sorted(block.writes.items()):
        writes_by_bank[slot // 8].append(write.reg)
    for bank in range(4):
        decl_t = 2 + bank
        events.append((decl_t, ("decl", bank, writes_by_bank[bank])))
        last = max(last, decl_t)
    for slot, read in sorted(block.reads.items()):
        arrive = 2 + slot // 4 + (slot // 8) + 2
        events.append((arrive, ("read", slot // 8, slot, read.reg)))
        last = max(last, arrive)
    rows = [[] for _ in range(4)]
    for slot, inst in sorted(block.body.items()):
        rows[(slot % 16) // 4].append((slot, inst))
    for row in range(4):
        base = 2 + (row + 1)
        for n, (slot, inst) in enumerate(rows[row]):
            et = slot % 16
            arrive = base + 1 + n // 4 + (et % 4 + 1)
            events.append((arrive, ("inst", et, slot, inst)))
            last = max(last, arrive)
    events.append((last, ("done",)))
    return sorted(events, key=lambda event: event[0]), last


def _flatten(decoded):
    out = []
    offsets = [offset for offset, _ in decoded.dispatch_plan]
    assert offsets == sorted(set(offsets)), "one group per distinct offset"
    for offset, actions in decoded.dispatch_plan:
        assert actions, "empty dispatch group"
        for action in actions:
            kind = action[0]
            if kind == GDN_DECL:
                out.append((offset, ("decl", action[1], list(action[2]))))
            elif kind == GDN_READ:
                out.append((offset, ("read", action[1], action[2],
                                     action[3][0])))
            elif kind == GDN_INST:
                out.append((offset, ("inst", action[1], action[2],
                                     action[3].inst)))
            else:
                assert kind == GDN_DONE
                out.append((offset, ("done",)))
    return out


def _expected_routes(targets):
    routes = []
    for target in targets:
        if target.kind is OperandKind.WRITE:
            routes.append((("W", target.slot), target.kind,
                           (0, 1 + target.slot // 8), -1))
        else:
            et = target.slot % 16
            routes.append((target.slot, target.kind,
                           (1 + et // 4, 1 + et % 4), et))
    return tuple(routes)


@pytest.mark.parametrize("name,level", _CASES,
                         ids=[f"{n}-{lv}" for n, lv in _CASES])
def test_plan_matches_per_event_dispatch(name, level):
    program = compile_tir(get_workload(name), level=level).program
    assert program.blocks
    for addr, block in program.blocks.items():
        decoded = DecodedBlock(block, addr)
        want, last = _reference_events(block)
        assert _flatten(decoded) == want, f"block {addr:#x}"
        assert decoded.dispatch_last == last
        assert decoded.gdn_words == len(block.reads) + len(block.body) + 4
        # pre-resolved operand routes agree with the ISA targets
        for offset, actions in decoded.dispatch_plan:
            for action in actions:
                if action[0] == GDN_READ:
                    read = block.reads[action[2]]
                    assert action[3][1] == _expected_routes(read.targets)
                elif action[0] == GDN_INST:
                    plan = action[3]
                    assert plan.routes == _expected_routes(plan.inst.targets)
