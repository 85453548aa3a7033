"""Timing goldens: pinned digests of the detailed engine's modelled output.

``test_fast_path.py`` compares the fast engine with the full-scan
reference, but both run the same tiles, GDN dispatch and LSQ code, so a
change there that shifts one modelled cycle in both engines at once
passes it.  These tests pin absolute values instead: a sha256 of
``ProcStats.to_dict()`` for a spread of workload x code level x memory
system cases, and a digest of the whole trace event stream (every
BlockEvent and InstEvent, in recording order) for two of them.

The pinned values were recorded at commit 715f8da.  A change that is
meant to move modelled timing must re-record them (a failing case's
assertion message carries the case and its current digest) and say why.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.compiler import compile_tir
from repro.uarch.config import TripsConfig
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload

#: (workload, level, perfect_l2) -> sha256 of the sorted-key ProcStats JSON
STATS_GOLDEN = {
    ("bezier02", "tcc", True):
        "a97b620ad6ed6abfc3fa6e16ea46a93e86dee4bfdb45fef366c0a41b1aceb259",
    ("mcf", "tcc", False):
        "7ab0c17193620fe2c519b8e57f242ae932c2a0e79cd68efddc347aba1a3108a1",
    ("sha", "hand", False):
        "29c02824b87268f5f9c481e70cc71abaab2a1460f992d69db740d499e4bb299d",
    ("qr", "hand", True):
        "dd4b1fa2b6a40a9c824fbec0ba80e8e45a44429d6ac43d22dbf2d2ae17711105",
    ("tblook01", "tcc", False):
        "111b0467fb506c18b5728a9989b9c301827f35898984476db7e65d9bf6421b51",
    ("genalg", "hand", True):
        "c1b07795b68b17efc88f196e3715fecd40005fa86e75b56bce88d60b46f0b7d2",
    ("wheel_deferred_wake", "tcc", True):
        "b5dc8ed7d1bd792a525a6744ee97486398106b5822fe6dad6e7c28e60acbccf3",
}

#: (workload, level, perfect_l2) -> sha256 of the trace event stream
TRACE_GOLDEN = {
    ("bezier02", "tcc", True):
        "1550a4633ec84ccd011a4e39043e30821af6674056b9eefb3a5febb1217b8e49",
    ("sha", "hand", False):
        "8fa268039d34e8d621d9033fc8496dfa2e75f4fe790685edd88f7a833cc3bf10",
}


def _ids(cases):
    return [f"{n}-{lv}-{'perfect' if l2 else 'nuca'}" for n, lv, l2 in cases]


def _run(name, level, perfect_l2, trace=False):
    program = compile_tir(get_workload(name), level=level).program
    proc = TripsProcessor(program, config=TripsConfig(perfect_l2=perfect_l2),
                          trace=trace)
    stats = proc.run()
    return stats, proc.trace


def _stats_digest(stats):
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _trace_digest(trace):
    h = hashlib.sha256()
    h.update(repr(trace.final_block_uid).encode())
    for event in trace.blocks.values():
        h.update(repr(asdict(event)).encode())
    for event in trace.insts.values():
        h.update(repr(asdict(event)).encode())
    return h.hexdigest()


def _check(golden, case, got):
    assert got == golden[case], f"{case!r}: {got!r}"


@pytest.mark.parametrize("case", list(STATS_GOLDEN),
                         ids=_ids(STATS_GOLDEN))
def test_stats_digest_pinned(case):
    stats, _ = _run(*case)
    _check(STATS_GOLDEN, case, _stats_digest(stats))


@pytest.mark.parametrize("case", list(TRACE_GOLDEN), ids=_ids(TRACE_GOLDEN))
def test_trace_stream_digest_pinned(case):
    stats, trace = _run(*case, trace=True)
    # tracing must not perturb the modelled stats either
    assert _stats_digest(stats) == STATS_GOLDEN[case]
    _check(TRACE_GOLDEN, case, _trace_digest(trace))
