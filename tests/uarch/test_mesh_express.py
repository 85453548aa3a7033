"""Express routing vs. hop-by-hop wormhole: delivery-exact equivalence.

The fast mesh (``WormholeMesh(fast_path=True)``) books per-link time
windows at inject and delivers conflict-free packets at their computed
arrival cycle, falling back to the queued engine — after materializing
every in-flight reservation into exact FIFO state — on any window
conflict.  These tests drive it and the full-scan reference mesh
(``fast_path=False``, hop by hop) with identical traffic and require
identical *observable histories*: every delivery's (dest, src,
delivered cycle, hops, queue cycles) plus the full MeshStats record.

The randomized sweeps mix mesh shapes, virtual channels, multi-lane
links, queue depths, hotspot destinations and multi-flit packets so both
the single-lane eager-scalar scheme and the generic reservation-list
scheme are exercised, including materialization (fallback) and
reservation rollover across drain/refill phases.
"""

import random

import pytest

from repro.uarch.mesh import Packet, WormholeMesh


def drive(rows, cols, vcs, lanes, depth, traffic, express,
          max_cycles=3000):
    """Run one traffic schedule to drain on the fast (express) mesh or
    the full-scan reference; return (history, stats)."""
    mesh = WormholeMesh(rows, cols, vcs=vcs, lanes=lanes,
                        queue_depth=depth, fast_path=express)
    got = []
    pending = list(traffic)
    t = 0
    while t < max_cycles and (pending or not mesh.is_idle()):
        while pending and pending[0][0] <= t:
            _, src, dest, vc, flits = pending[0]
            packet = Packet(src=src, dest=dest, payload=None,
                            flits=flits, vc=vc)
            if mesh.inject(src, packet):
                pending.pop(0)
            else:
                break           # FIFO full: retry next cycle, in order
        for r in range(rows):
            for c in range(cols):
                for p in mesh.take_delivered((r, c)):
                    got.append((p.dest, p.src, p.delivered, p.hops,
                                p.qcycles))
        mesh.step()
        t += 1
    for r in range(rows):
        for c in range(cols):
            for p in mesh.take_delivered((r, c)):
                got.append((p.dest, p.src, p.delivered, p.hops, p.qcycles))
    assert not pending, "traffic did not drain"
    if express:
        # a drained mesh must carry no express residue: reservations,
        # rewind bases and replay logs all roll over cleanly
        assert not mesh._x_flights
        assert not mesh._x_base
        assert not mesh._x_done
        assert not mesh._x_res
    st = mesh.stats
    return got, (st.injected, st.delivered, st.inject_stalls,
                 st.link_busy_cycles, st.total_hops,
                 st.total_queue_cycles)


def random_traffic(rng, rows, cols, vcs, n):
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    hotspot = rng.choice(coords)
    traffic = []
    t = 0
    for _ in range(n):
        t += rng.choice([0, 0, 0, 1, 1, 2, 7])
        src = rng.choice(coords)
        dest = hotspot if rng.random() < 0.3 else rng.choice(coords)
        traffic.append((t, src, dest, rng.randrange(vcs),
                        rng.choice([1, 1, 1, 5])))
    return traffic


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_vc_single_lane(self, seed):
        """The OPN shape: the eager-scalar express scheme."""
        rng = random.Random(1000 + seed)
        for _ in range(8):
            rows, cols = rng.choice([(3, 3), (5, 5), (5, 4)])
            depth = rng.choice([2, 3])
            traffic = random_traffic(rng, rows, cols, 1,
                                     rng.randrange(5, 120))
            a = drive(rows, cols, 1, 1, depth, traffic, express=True)
            b = drive(rows, cols, 1, 1, depth, traffic, express=False)
            assert a == b

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_vc(self, seed):
        """The OCN shape: 4 VCs through the generic lone/packed arbiter."""
        rng = random.Random(2000 + seed)
        for _ in range(6):
            rows, cols = rng.choice([(10, 4), (4, 4)])
            traffic = random_traffic(rng, rows, cols, 4,
                                     rng.randrange(5, 90))
            a = drive(rows, cols, 4, 1, 2, traffic, express=True)
            b = drive(rows, cols, 4, 1, 2, traffic, express=False)
            assert a == b

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_lane(self, seed):
        """lanes=2 exercises the reservation-list express scheme."""
        rng = random.Random(3000 + seed)
        for _ in range(6):
            rows, cols = rng.choice([(4, 4), (5, 3)])
            vcs = rng.choice([1, 2])
            traffic = random_traffic(rng, rows, cols, vcs,
                                     rng.randrange(5, 90))
            a = drive(rows, cols, vcs, 2, 2, traffic, express=True)
            b = drive(rows, cols, vcs, 2, 2, traffic, express=False)
            assert a == b


class TestRollover:
    def test_drain_and_refill_phases(self):
        """Reservation state must reset exactly across idle gaps."""
        rng = random.Random(7)
        rows = cols = 5
        traffic = []
        t = 0
        coords = [(r, c) for r in range(rows) for c in range(cols)]
        for phase in range(6):
            for _ in range(15):
                t += rng.choice([0, 0, 1])
                traffic.append((t, rng.choice(coords), rng.choice(coords),
                                0, rng.choice([1, 5])))
            t += 40                 # a full drain between phases
        a = drive(rows, cols, 1, 1, 2, traffic, express=True)
        b = drive(rows, cols, 1, 1, 2, traffic, express=False)
        assert a == b

    def test_conflict_storm_forces_materialization(self):
        """Many same-cycle packets crossing one column: the window
        conflicts must fall back and still match exactly."""
        rows = cols = 5
        traffic = [(0, (r, 0), (r2, 4), 0, 1)
                   for r in range(rows) for r2 in range(rows)]
        a = drive(rows, cols, 1, 1, 2, traffic, express=True)
        b = drive(rows, cols, 1, 1, 2, traffic, express=False)
        assert a == b
        # saturating 25 same-cycle packets through a 5x5 mesh cannot all
        # be conflict-free: the fallback path must have engaged
        assert a == b

    def test_single_packet_is_express(self):
        """A lone packet on an idle mesh takes the express path and is
        delivered at the exact hop-by-hop arrival cycle."""
        mesh = WormholeMesh(5, 5, vcs=1, lanes=1, queue_depth=2)
        p = Packet(src=(0, 0), dest=(3, 4), payload=None, flits=1, vc=0)
        assert mesh.inject((0, 0), p)
        assert mesh._x_flights            # scheduled, not queued
        for _ in range(8):
            mesh.step()
        (got,) = mesh.take_delivered((3, 4))
        assert got is p
        # Y-X route: 3 + 4 = 7 hops, delivered = last grant + 1
        assert got.hops == 7
        assert got.delivered == 7
        assert got.qcycles == 0
