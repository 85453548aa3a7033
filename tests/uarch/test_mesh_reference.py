"""Fast mesh vs. the full-scan reference model.

The fast-path ``WormholeMesh.step()`` only visits routers whose input
FIFOs hold packets (and delivers conflict-free packets by express
reservation); ``fast_path=False`` is the original algorithm that scans
the whole grid every cycle.  The two must be cycle-for-cycle
identical: same packets delivered at the same coordinates on the same
cycles, with the same hop counts, queueing delays and aggregate stats.

This drives both engines with identical randomized traffic (seeded, so
failures replay) across VC counts, lane counts and the two production
geometries (5x5 OPN, 4x10 OCN with 4 VCs).
"""

import random

import pytest

from repro.uarch.mesh import Packet, WormholeMesh


def _make_pair(rows, cols, vcs, lanes, queue_depth=2):
    fast = WormholeMesh(rows, cols, vcs=vcs, queue_depth=queue_depth,
                        lanes=lanes)
    slow = WormholeMesh(rows, cols, vcs=vcs, queue_depth=queue_depth,
                        lanes=lanes, fast_path=False)
    return fast, slow


def _drive(fast, slow, rows, cols, vcs, seed, cycles, inject_prob,
           burst=3):
    """Inject identical random traffic into both meshes for ``cycles``
    cycles, then drain them; compare per cycle.  The aggregate stats are
    compared once drained: the fast mesh folds an express packet's
    ``link_busy_cycles`` in at delivery, not grant by grant."""
    rng = random.Random(seed)
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    pending = []          # mirrored offers: (src, fast packet, slow packet)
    delivered = 0
    cycle = 0
    while cycle < cycles or pending or not slow.is_idle():
        assert cycle < cycles + 1000, "traffic did not drain"
        # offer the same packets to both meshes (retrying refusals, which
        # must match: inject acceptance depends only on FIFO occupancy)
        offers = list(pending)
        pending.clear()
        if cycle < cycles and rng.random() < inject_prob:
            for _ in range(rng.randrange(1, burst + 1)):
                src = rng.choice(coords)
                dest = rng.choice(coords)
                while dest == src:
                    dest = rng.choice(coords)
                vc = rng.randrange(vcs)
                flits = rng.choice((1, 1, 1, 5))
                offers.append((src,
                               Packet(src=src, dest=dest, vc=vc,
                                      flits=flits, payload=cycle),
                               Packet(src=src, dest=dest, vc=vc,
                                      flits=flits, payload=cycle)))
        for src, fpkt, spkt in offers:
            took_fast = fast.inject(src, fpkt)
            took_slow = slow.inject(src, spkt)
            assert took_fast == took_slow, \
                f"inject acceptance diverged at cycle {cycle} from {src}"
            if not took_fast:
                pending.append((src, fpkt, spkt))
        fast.step()
        slow.step()
        assert fast.cycle_count == slow.cycle_count
        for node in coords:
            got_fast = fast.take_delivered(node)
            got_slow = slow.take_delivered(node)
            key = lambda p: (p.payload, p.src, p.dest, p.vc, p.flits,
                             p.created, p.injected, p.delivered, p.hops,
                             p.queue_cycles)
            assert [key(p) for p in got_fast] == \
                   [key(p) for p in got_slow], \
                f"deliveries diverged at {node}, cycle {cycle}"
            delivered += len(got_fast)
        assert fast.is_idle() == slow.is_idle()
        cycle += 1
    assert vars(fast.stats) == vars(slow.stats)
    return delivered


@pytest.mark.parametrize("seed", range(6))
def test_opn_geometry_matches_full_scan(seed):
    """5x5 single-VC single-lane (the OPN) under moderate load."""
    fast, slow = _make_pair(5, 5, vcs=1, lanes=1)
    n = _drive(fast, slow, 5, 5, vcs=1, seed=seed, cycles=240,
               inject_prob=0.7)
    assert n > 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("vcs", [2, 4])
def test_virtual_channels_match_full_scan(seed, vcs):
    """Multi-VC arbitration (the OCN runs 4 VCs) stays identical."""
    fast, slow = _make_pair(4, 10, vcs=vcs, lanes=1)
    n = _drive(fast, slow, 4, 10, vcs=vcs, seed=100 + seed, cycles=240,
               inject_prob=0.6)
    assert n > 0


@pytest.mark.parametrize("seed", range(4))
def test_multi_lane_matches_full_scan(seed):
    """Two output lanes per port: round-robin grants stay identical."""
    fast, slow = _make_pair(5, 5, vcs=2, lanes=2)
    n = _drive(fast, slow, 5, 5, vcs=2, seed=200 + seed, cycles=240,
               inject_prob=0.8)
    assert n > 0


@pytest.mark.parametrize("seed", range(3))
def test_saturating_load_matches_full_scan(seed):
    """Every-cycle bursts overflow FIFOs; refusal/retry behaviour matches."""
    fast, slow = _make_pair(5, 5, vcs=1, lanes=1, queue_depth=1)
    n = _drive(fast, slow, 5, 5, vcs=1, seed=300 + seed, cycles=300,
               inject_prob=1.0, burst=5)
    assert n > 0


def test_sparse_traffic_exercises_idle_shortcut():
    """Long quiescent stretches: the active-set early-out stays in sync."""
    fast, slow = _make_pair(5, 5, vcs=1, lanes=1)
    n = _drive(fast, slow, 5, 5, vcs=1, seed=42, cycles=400,
               inject_prob=0.05)
    assert n > 0
    assert fast.is_idle() and slow.is_idle()
