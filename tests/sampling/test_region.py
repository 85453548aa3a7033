"""The cold fast-forward region against the per-block path and the
interpreter.

``FastForwarder.run_blocks`` with ``warm=False`` runs a whole program's
compiled blocks chained in one generated loop, keeping counts in locals
and folding them into ``FunctionalStats`` and the BBVs when each call
ends.  Everything it produces must equal what stepping the same blocks
one ``step_block`` at a time produces, and what the token-pump
interpreter produces — including the insertion order of every dict,
because :func:`repro.sampling.phases.project_bbvs` sums in that order.
"""

from dataclasses import fields

import pytest

from repro.asm import assemble
from repro.compiler import compile_tir
from repro.sampling.checkpoint import take_checkpoint
from repro.sampling.ffwd import FastForwarder
from repro.uarch.config import TripsConfig
from repro.uarch.functional import FunctionalSim, SimError
from repro.workloads import get_workload, workload_names

#: hand-written blocks for the load paths the workloads rarely reach
EDGE_PROGRAMS = {
    # loads from untouched pages (which must be allocated, as
    # BackingStore.read does), one of them straddling two pages
    "untouched-pages": """.reg R8 = 0x7000
.reg R12 = 0x8FFF
.reg R16 = 0x6FFF
.block main
    R[0] read R8 N[0,L]
    R[1] read R12 N[1,L]
    R[2] read R16 N[2,L]
    W[0] write R4
    W[1] write R20
    W[2] write R24
    N[0] ld L[0] #0 W[0]
    N[1] lhu L[1] #0 W[1]
    N[2] lb L[2] #0 W[2]
    N[3] halt exit0
""",
    # an earlier-LSID store forwards into the load
    "store-forwarding": """.reg R8 = 0x3000
.block main
    R[0] read R8 N[0,L] N[2,L]
    W[8] write R9
    N[0] mov N[1,L]
    N[1] sd L[0] #0
    N[3] movi #77 N[1,R]
    N[2] ld L[1] #0 W[8]
    N[4] halt exit0
""",
    # the earlier-LSID store is nullified, so the store buffer is empty
    "nullified-store": """.reg R8 = 0x3000
.block main
    R[0] read R8 N[0,L] N[2,L]
    W[8] write R9
    N[0] mov N[1,L]
    N[1] sd L[0] #0
    N[3] null N[1,R]
    N[2] ld L[1] #0 W[8]
    N[4] halt exit0
""",
    # exit 1 fires before exit 0, from a block placed after its target,
    # so address order and first-use order of the exits disagree
    "exit-order": """.entry main
.block last
    N[0] halt exit0
.block main
    N[0] bro exit1 @last
""",
    # a register branch to the exit address halts the program
    "branch-to-exit": """.reg R4 = 0
.block main
    R[0] read R4 N[0,L]
    N[0] br exit2
""",
}

INTERVALS = (1, 7, 8000)


def _programs():
    out = [(name, 1) for name in workload_names()] + [("mcf", 8)]
    return out + [(name, None) for name in EDGE_PROGRAMS]


def _program(name, size):
    if size is None:
        return assemble(EDGE_PROGRAMS[name])
    return compile_tir(get_workload(name, size=size), level="tcc").program


def _step_to(sim, n):
    """The per-block reference: what ``run_blocks`` did before regions."""
    st = sim.stats
    while not sim.halted and st.blocks < n:
        if st.blocks >= sim.max_blocks:
            raise SimError(f"block budget {sim.max_blocks} exhausted")
        sim.step_block()


def _ordered_stats(sim):
    """Every FunctionalStats field, dicts as item lists (key order)."""
    return {f.name: (list(value.items()) if isinstance(value, dict)
                     else value)
            for f in fields(sim.stats)
            for value in (getattr(sim.stats, f.name),)}


def _ordered_bbvs(ff):
    return [list(vec.items()) for vec in ff.bbv_vectors()]


def _targets(seed):
    """Run-to targets at irregular steps, some inside an interval."""
    x, target = seed, 0
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        target += 1 + x % 97
        yield target


def _assert_same(region, stepped, interp):
    assert _ordered_stats(region) == _ordered_stats(stepped)
    assert _ordered_bbvs(region) == _ordered_bbvs(stepped)
    assert take_checkpoint(region).to_dict() == \
        take_checkpoint(stepped).to_dict()
    assert (region.pc, region.halted) == (interp.pc, interp.halted)
    assert list(region.regs) == list(interp.regs)
    assert list(region.memory.touched_pages()) == \
        list(interp.memory.touched_pages())
    assert _ordered_stats(region) == _ordered_stats(interp)


@pytest.mark.parametrize("name,size", _programs())
def test_region_matches_step_block_and_interpreter(name, size):
    program = _program(name, size)
    for interval in INTERVALS:
        region = FastForwarder(program, TripsConfig(), warm=False,
                               bbv_interval=interval)
        stepped = FastForwarder(program, TripsConfig(), warm=False,
                                bbv_interval=interval)
        interp = FunctionalSim(program)
        for target in _targets(interval):
            region.run_blocks(target)
            _step_to(stepped, target)
            _step_to(interp, target)
            _assert_same(region, stepped, interp)
            if region.halted:
                break
        assert region.region_blocks == region.stats.blocks
        assert stepped.region_blocks == 0
        assert region.unwarmed_blocks == stepped.unwarmed_blocks


@pytest.mark.parametrize("name,size,budget", [("mcf", 8, 1000),
                                              ("dct8x8", 1, 777)])
def test_block_budget_raises_at_the_same_block(name, size, budget):
    program = _program(name, size)
    region = FastForwarder(program, TripsConfig(), warm=False,
                           max_blocks=budget, bbv_interval=7)
    stepped = FastForwarder(program, TripsConfig(), warm=False,
                            max_blocks=budget, bbv_interval=7)
    interp = FunctionalSim(program, max_blocks=budget)
    with pytest.raises(SimError, match="budget"):
        region.run_blocks(10**9)
    with pytest.raises(SimError, match="budget"):
        _step_to(stepped, 10**9)
    with pytest.raises(SimError, match="budget"):
        interp.run()
    assert region.stats.blocks == budget
    _assert_same(region, stepped, interp)
    with pytest.raises(SimError, match="budget"):
        FastForwarder(program, TripsConfig(), warm=False,
                      max_blocks=budget).run()


def test_untouched_page_load_allocates_the_page():
    program = assemble(EDGE_PROGRAMS["untouched-pages"])
    ff = FastForwarder(program, TripsConfig(), warm=False)
    ff.run()
    pages = dict(ff.memory.touched_pages())
    assert {0x6000, 0x7000, 0x8000, 0x9000} <= set(pages)
    assert [ff.regs[r] for r in (4, 20, 24)] == [0, 0, 0]


def test_warm_and_cold_mix_keeps_one_timeline():
    # the sampler's bounded-warming pattern: cold region stretches
    # between warm per-block stretches, on one fast-forwarder
    program = _program("mcf", 8)
    mixed = FastForwarder(program, TripsConfig(), warm=True,
                          bbv_interval=50)
    stepped = FastForwarder(program, TripsConfig(), warm=True,
                            bbv_interval=50)
    interp = FunctionalSim(program)
    for k, target in enumerate(_targets(3)):
        mixed.warm = stepped.warm = bool(k % 2)
        mixed.run_blocks(target)
        _step_to(stepped, target)
        _step_to(interp, target)
        _assert_same(mixed, stepped, interp)
        if mixed.halted:
            break
    paths = mixed.block_paths()
    assert paths["region"] + paths["warm"] == mixed.stats.blocks
    assert paths["region"] and paths["warm"]
    assert paths["fallback"] == paths["teleported"] == 0
