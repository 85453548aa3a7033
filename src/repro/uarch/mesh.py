"""Generic cycle-stepped wormhole-routed 2D mesh.

Used for the operand network (5x5, single-flit operand packets, Section 3)
and the on-chip network (4x10, multi-flit cache-line packets, Section 3.6).

Model: dimension-order (row-first) routing, per-input-port FIFOs of
configurable depth, round-robin output arbitration, and packet-granularity
wormhole approximation — a packet of F flits holds its output link for F
cycles (serialization), which captures wormhole bandwidth behaviour without
per-flit state.  Multiple virtual channels are modelled as additional,
independently-arbitrated input FIFOs, which removes head-of-line blocking
between traffic classes the way VCs do.

Every packet records its injection time, hop count and queueing delay so
the critical-path analyzer can split operand latency into the paper's
"OPN hops" and "OPN contention" categories.

Routers are named internally by integer id ``row * cols + col``; the
router state, the active set and all routing tables are lists or sets
indexed by id, so the arbiter never hashes a coordinate.  Coordinates
appear only at the API boundary (:meth:`inject`, :meth:`take_delivered`,
:attr:`delivery_pending`, the telemetry sink and ``Packet.src``/``dest``);
:meth:`inject` stamps each packet with its destination id.

Fast path (``fast_path=True``, the default): ``step()`` only visits
*active* routers — those with at least one occupied input queue —
instead of scanning the whole grid, and all routing decisions come from
tables precomputed at construction time (``(node, dest) -> out port``
and ``(node, out port) -> (neighbor, entry port)``).  The arbitration,
timing and delivery order are cycle-for-cycle identical to a full scan:
routers are visited in ascending id order, which is the row-major order
the full scan uses, and quiescent routers contribute nothing to a scan
by construction.
``fast_path=False`` is that full scan, kept as the reference model;
``tests/uarch/test_mesh_reference.py`` checks the two against each other
under randomized traffic.

Express routing: dimension-order routing is deterministic, so a packet
injected into an otherwise-empty mesh wins every arbitration it meets and
its whole itinerary — which link it holds at which cycle, and when it
ejects — is known at injection time.  On the fast path, when no packet
is queued in any FIFO, :meth:`inject` therefore *schedules* the packet
instead of simulating it: it computes the grant sequence the hop-by-hop
engine would execute, checks every (node, out port, lane) window against
a time-indexed reservation table (plus the scalar busy-until residue of
past traffic), and on success records the reservations and queues the
delivery for its computed arrival cycle.  Any window conflict falls back
to the exact engine: every in-flight express packet is *materialized*
into the FIFO position it would occupy at that instant (executed grants
folded into the busy-until/round-robin state, unexecuted reservations
discarded) and normal wormhole arbitration takes over until the mesh
drains.  Because an accepted express schedule is precisely the grant
trace the deterministic arbiter would produce, delivery cycles, ordering,
stats and router state are cycle-for-cycle identical either way
(``tests/uarch/test_mesh_express.py``).  Express requires FIFO depth >= 2
(so a fluent single-packet chain can never be backpressured) and turns
itself off while a telemetry sink is attached (per-hop probes need real
hops).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

Coord = Tuple[int, int]   # (row, col)


@dataclass(slots=True)
class Packet:
    """One network packet (an operand, a control message, a cache line)."""

    src: Coord
    dest: Coord
    payload: object = None
    flits: int = 1
    vc: int = 0
    created: int = -1        # cycle handed to the network (or queued)
    injected: int = -1       # cycle accepted into the source router
    delivered: int = -1      # cycle ejected at the destination
    hops: int = 0
    qcycles: int = -1        # contention cycles, filled in at delivery
    did: int = -1            # destination router id, set by inject()

    @property
    def min_latency(self) -> int:
        return abs(self.src[0] - self.dest[0]) + abs(self.src[1] - self.dest[1])

    @property
    def queue_cycles(self) -> int:
        """Cycles lost to contention (beyond pure hop latency)."""
        if self.qcycles >= 0:
            return self.qcycles
        if self.delivered < 0 or self.injected < 0:
            return 0
        return max(0, (self.delivered - self.injected) - self.min_latency)


class _Port:
    """One input FIFO (per VC) feeding a router."""

    __slots__ = ("queues", "depth")

    def __init__(self, vcs: int, depth: int):
        self.queues: List[Deque[Packet]] = [deque() for _ in range(vcs)]
        self.depth = depth

    def has_space(self, vc: int) -> bool:
        return len(self.queues[vc]) < self.depth

    def push(self, packet: Packet) -> None:
        self.queues[packet.vc].append(packet)


class _Flight:
    """One express-routed packet in flight: its reserved grant schedule."""

    __slots__ = ("seq", "packet", "src", "vc", "start", "grants", "hops",
                 "arrival")

    def __init__(self, seq, packet, src, vc, start, grants, hops, arrival):
        self.seq = seq
        self.packet = packet
        self.src = src
        self.vc = vc
        self.start = start          # cycle the packet leaves the LOCAL FIFO
        self.grants = grants        # [(node id, out port, grant, lane)]
        self.hops = hops
        self.arrival = arrival      # delivery cycle at the destination


# port indices
_LOCAL, _NORTH, _SOUTH, _EAST, _WEST = range(5)
_NUM_PORTS = 5
#: input port of the neighbour that a move through each output port fills
_ENTRY = {_NORTH: _SOUTH, _SOUTH: _NORTH, _EAST: _WEST, _WEST: _EAST}


@dataclass
class MeshStats:
    injected: int = 0
    delivered: int = 0
    total_hops: int = 0
    total_queue_cycles: int = 0
    link_busy_cycles: int = 0
    inject_stalls: int = 0


class WormholeMesh:
    """A rows x cols mesh of 5-ported routers."""

    def __init__(self, rows: int, cols: int, vcs: int = 1,
                 queue_depth: int = 2, lanes: int = 1,
                 fast_path: bool = True):
        self.rows = rows
        self.cols = cols
        self.vcs = vcs
        self.lanes = lanes
        #: False = the reference engine: scan every router every cycle
        #: (the original algorithm), for timing cross-validation
        self.fast_path = fast_path
        self.cycle_count = 0
        # router id -> coordinate (row-major) and back
        coords = [(r, c) for r in range(rows) for c in range(cols)]
        self._coords = coords
        self._ids: Dict[Coord, int] = {node: i for i, node in
                                       enumerate(coords)}
        nodes = range(len(coords))
        self._nodes = tuple(nodes)
        # ports[node id][port] -> _Port
        self.ports: List[List[_Port]] = [
            [_Port(vcs, queue_depth) for _ in range(_NUM_PORTS)]
            for _ in nodes]
        # precomputed route[node][dest] -> out port and
        # hop[node][out port] -> (neighbor id, its entry port)
        self._route: List[List[int]] = [
            [self._next_hop(coords[n], coords[d]) for d in nodes]
            for n in nodes]
        self._hop: List[List[Optional[Tuple[int, int]]]] = []
        for node in coords:
            hops: List[Optional[Tuple[int, int]]] = [None] * _NUM_PORTS
            for out in (_NORTH, _SOUTH, _EAST, _WEST):
                neighbor = self._neighbor(node, out)
                if 0 <= neighbor[0] < rows and 0 <= neighbor[1] < cols:
                    hops[out] = (self._ids[neighbor], _ENTRY[out])
            self._hop.append(hops)
        # flat per-node queue aliases for the arbiter's hot loops (the
        # deque objects are created once and only ever mutated, so the
        # aliases stay valid): VC-0 queues for the single-VC fast path,
        # and all queues in port-major order for the general scan
        self._q0: List[Tuple[Deque[Packet], ...]] = [
            tuple(port.queues[0] for port in self.ports[n]) for n in nodes]
        self._qall: List[Tuple[Deque[Packet], ...]] = [
            tuple(q for port in self.ports[n] for q in port.queues)
            for n in nodes]
        # output serialization: per node, per out port, busy-until per lane
        self._busy: List[List[List[int]]] = [
            [[0] * lanes for _ in range(_NUM_PORTS)] for _ in nodes]
        self._rr: List[List[int]] = [[0] * _NUM_PORTS for _ in nodes]
        self._delivery: Dict[Coord, List[Packet]] = {
            node: [] for node in coords}
        # one-lookup arbiter context: everything the per-node grant loop
        # needs, fetched with a single index instead of five
        self._ctx: List[tuple] = [
            (self._q0[n], self._qall[n], self._route[n], self._busy[n],
             self._rr[n], self._hop[n]) for n in nodes]
        #: single-VC single-lane meshes (the OPN) take a specialized
        #: arbitration loop on the fast path
        self._simple = vcs == 1 and lanes == 1
        self._depth = queue_depth
        #: ids of nodes holding at least one queued packet (the active
        #: set) and every node's total queued-packet count
        self._active: Set[int] = set()
        self._occupancy: List[int] = [0] * len(coords)
        #: nodes with packets awaiting :meth:`take_delivered`
        self.delivery_pending: Set[Coord] = set()
        self.stats = MeshStats()
        #: optional :class:`repro.telemetry.recorder.MeshTelemetry` sink
        self.telemetry = None
        # -- express routing (see module docstring) --------------------
        #: depth >= 2 guarantees an uncontended chain is never blocked by
        #: a FIFO holding another express packet for its one-cycle stay
        self._express = fast_path and queue_depth >= 2
        self._x_seq = 0
        #: seq -> _Flight, every scheduled-but-not-yet-delivered packet
        self._x_flights: Dict[int, _Flight] = {}
        #: (node, out port, lane) -> [(grant, grant+flits, flight seq)]
        self._x_res: Dict[Tuple[int, int, int],
                          List[Tuple[int, int, int]]] = {}
        #: delivery calendar: (arrival, penultimate node id, flight seq);
        #: the penultimate node orders same-cycle same-dest deliveries the
        #: way the hop-by-hop move loop (ascending-id router visits) would
        self._x_arrivals: List[Tuple[int, int, int]] = []
        #: [node * vcs + vc] -> start cycle of the last express packet
        #: injected there (LOCAL FIFO ordering: one departure per cycle
        #: per queue)
        self._x_last: List[int] = [-1] * (len(coords) * vcs)
        #: [src][dest] -> ((node, out port), ...) — the static Y-X path,
        #: built lazily; deterministic routing makes it reusable
        self._x_paths: List[List[Optional[Tuple[Tuple[int, int], ...]]]] = [
            [None] * len(coords) for _ in nodes]
        #: single-lane fast scheme: scheduled windows are folded into the
        #: ``_busy`` scalars (and round-robin pointers) eagerly — at
        #: schedule time, not delivery — and this map keeps each touched
        #: link's pre-schedule ``(busy, rr)`` pair so :meth:`_materialize`
        #: can rewind to executed-grants-only state (keyed
        #: ``node * 5 + out port``).  A packet wanting a
        #: window *before* an already-scheduled one then looks blocked and
        #: falls back — a precision/speed trade that stays exact because
        #: the fallback path is exact.
        self._x_base: Dict[int, Tuple[int, int]] = {}
        #: delivered-but-not-yet-folded flights: their windows live only
        #: in the eager scalars, so a materialization replays them after
        #: the rewind.  Cleared whenever the last flight lands (the eager
        #: scalars are then exactly the executed truth).
        self._x_done: List[_Flight] = []

    # ------------------------------------------------------------------
    def inject(self, node: Coord, packet: Packet) -> bool:
        """Offer a packet to ``node``'s local input; False if it is full."""
        ids = self._ids
        packet.did = ids[packet.dest]
        if self._express and not self._active and self.telemetry is None:
            return self._inject_express(ids[node], packet)
        return self._inject_queued(ids[node], packet)

    def _inject_queued(self, node: int, packet: Packet) -> bool:
        queue = self.ports[node][_LOCAL].queues[packet.vc]
        if len(queue) >= self._depth:
            self.stats.inject_stalls += 1
            return False
        packet.injected = self.cycle_count
        if packet.created < 0:
            packet.created = self.cycle_count
        queue.append(packet)
        occupancy = self._occupancy
        if not occupancy[node]:
            self._active.add(node)
        occupancy[node] += 1
        self.stats.injected += 1
        if self.telemetry is not None:
            self.telemetry.note_depth(self._coords[node], self.cycle_count,
                                      self._occupancy[node])
        return True

    def take_delivered(self, node: Coord) -> List[Packet]:
        """Packets ejected at ``node`` since the last call."""
        out = self._delivery[node]
        if out:
            self._delivery[node] = []
            self.delivery_pending.discard(node)
        return out

    def is_idle(self) -> bool:
        """True when no packet is queued, in flight or awaiting pickup.

        An idle mesh's ``step()`` is a pure cycle-count increment (busy
        output lanes only ever gate *queued* packets, so they carry no
        future effect once the mesh drains).
        """
        return not self._active and not self.delivery_pending \
            and not self._x_flights

    def quiet(self) -> bool:
        """No queued packet and nothing awaiting pickup (express packets
        may still be in flight — their arrivals are timed events, not
        per-cycle work)."""
        return not self._active and not self.delivery_pending

    def next_event_t(self) -> Optional[int]:
        """Earliest cycle at which this mesh does or delivers anything.

        ``cycle_count`` while any router holds a queued packet or a
        delivery awaits pickup, the earliest express arrival when packets
        are only in reserved flight, None when fully drained.  The
        fast-path scheduler advances straight to this cycle."""
        if self._active or self.delivery_pending:
            return self.cycle_count
        if self._x_arrivals:
            return self._x_arrivals[0][0]
        return None

    def fast_forward(self, cycle: int) -> None:
        """Advance the clock over a stretch with no queued packets,
        releasing any express arrivals that fall due on the way."""
        self.cycle_count = cycle
        if self._x_arrivals:
            self._flush_express(cycle)

    # ------------------------------------------------------------------
    # express routing
    # ------------------------------------------------------------------
    def _inject_express(self, node: int, packet: Packet) -> bool:
        now = self.cycle_count
        vc = packet.vc
        key = node * self.vcs + vc
        # One departure per LOCAL queue per cycle (head-of-line order),
        # and the FIFO occupancy check: pending express starts for this
        # queue are the contiguous run [now, last] (a gap would need an
        # inject at a cycle past its predecessor's start, which resets the
        # run), so the scan over flights collapses to arithmetic.
        start = now
        prev = self._x_last[key]
        if prev >= start:
            if prev - now + 1 >= self._depth:
                self.stats.inject_stalls += 1
                return False
            start = prev + 1
        # the grant sequence the hop-by-hop engine would execute: link k
        # of the static Y-X path is granted at cycle start+k (a d=0
        # packet takes one LOCAL eject grant instead)
        dest = packet.did
        flits = packet.flits
        res = self._x_res
        busy_map = self._busy
        chosen: List[Tuple[int, int, int, int]] = []
        if node == dest:
            path = ((node, _LOCAL),)
            penult = node
        else:
            path = self._x_paths[node][dest]
            if path is None:
                route = self._route
                hop = self._hop
                steps = []
                cur = node
                while cur != dest:
                    out = route[cur][dest]
                    steps.append((cur, out))
                    cur = hop[cur][out][0]
                path = self._x_paths[node][dest] = tuple(steps)
            penult = path[-1][0]
        # window check: every grant must win its arbitration outright.
        # The lane the arbiter would pick is the first lane free at g as
        # seen through past grants only (scalar residue + reservations
        # covering g — future reservations have not happened yet at g);
        # a same-cycle reservation on any lane of the port, or any
        # reservation inside our serialization window on the chosen lane,
        # would perturb real arbitration, so it falls back.
        if self.lanes == 1:
            # eager-scalar scheme: the busy scalar already carries every
            # scheduled window, so one compare per hop decides, fused
            # with the commit (a mid-path conflict falls back, and the
            # materialization's rewind erases the partial writes); each
            # link's pre-schedule (busy, rr) pair is saved for that rewind
            base = self._x_base
            rr_map = self._rr
            g = start
            end = start + flits
            for cur, out in path:
                cell = busy_map[cur][out]
                if cell[0] > g:
                    return self._express_fallback(node, packet)
                bkey = cur * _NUM_PORTS + out
                if bkey not in base:
                    base[bkey] = (cell[0], rr_map[cur][out])
                cell[0] = end
                rr_map[cur][out] = 0
                g += 1
                end += 1
        else:
            nlanes = self.lanes
            g = start
            for cur, out in path:
                node_busy = busy_map[cur][out]
                lane_found = -1
                for lane in range(nlanes):
                    if node_busy[lane] > g:
                        continue
                    covered = False
                    for g2, end2, _s in res.get((cur, out, lane), ()):
                        if g2 <= g < end2:
                            covered = True
                            break
                    if not covered:
                        lane_found = lane
                        break
                if lane_found < 0:
                    return self._express_fallback(node, packet)
                g_end = g + flits
                for lane in range(nlanes):
                    for g2, _end2, _s in res.get((cur, out, lane), ()):
                        if g2 == g or (lane == lane_found
                                       and g < g2 < g_end):
                            return self._express_fallback(node, packet)
                chosen.append((cur, out, g, lane_found))
                g += 1
        # commit the schedule
        packet.injected = now
        if packet.created < 0:
            packet.created = now
        self.stats.injected += 1
        self._x_last[key] = start
        self._x_seq += 1
        seq = self._x_seq
        if node == dest:
            hops, arrival = 0, start + 1
        else:
            hops = len(path)
            arrival = start + hops
        # scalar mode stores the bare path in the grants slot (grant k is
        # derivably at cycle start+k, lane 0); the generic mode stores
        # explicit (node, out, grant, lane) tuples plus reservation-list
        # entries for the lane-aware conflict checks
        if self.lanes == 1:
            self._x_flights[seq] = _Flight(seq, packet, node, vc, start,
                                           path, hops, arrival)
        else:
            self._x_flights[seq] = _Flight(seq, packet, node, vc, start,
                                           chosen, hops, arrival)
            for cur, out, g, lane in chosen:
                res.setdefault((cur, out, lane), []).append(
                    (g, g + flits, seq))
        heapq.heappush(self._x_arrivals, (arrival, penult, seq))
        return True

    def _express_fallback(self, node: int, packet: Packet) -> bool:
        """A window conflict: reconstruct the exact engine's state and
        inject the packet through the normal FIFO path."""
        self._materialize(self.cycle_count)
        return self._inject_queued(node, packet)

    def _materialize(self, tau: int) -> None:
        """Convert every in-flight express packet into the FIFO position
        it would occupy at cycle ``tau`` under hop-by-hop simulation.

        Grants already executed (cycle < tau) become busy-until residue,
        round-robin resets and link-busy stats — exactly the state the
        hop-by-hop arbiter would have left.  Unexecuted reservations are
        discarded: those grants will now be re-arbitrated for real.
        """
        flights = sorted(self._x_flights.values(),
                         key=lambda fl: (fl.start, fl.seq))
        busy_map = self._busy
        rr_map = self._rr
        hop = self._hop
        ports = self.ports
        occupancy = self._occupancy
        active = self._active
        stats = self.stats
        scalar = self.lanes == 1
        if scalar:
            # rewind the eagerly-folded state to each link's pre-schedule
            # (busy, rr) pair, then re-apply the delivered flights and the
            # executed prefixes below, leaving exactly the hop-by-hop
            # engine's scalars
            for bkey, (b, r) in self._x_base.items():
                cur, out = divmod(bkey, _NUM_PORTS)
                busy_map[cur][out][0] = b
                rr_map[cur][out] = r
            self._x_base.clear()
            for flight in self._x_done:
                flits = flight.packet.flits
                g = flight.start
                for cur, out in flight.grants:
                    end = g + flits
                    cell = busy_map[cur][out]
                    if cell[0] < end:
                        cell[0] = end
                    rr_map[cur][out] = 0
                    g += 1
                # link-busy stats were already counted at delivery
            self._x_done.clear()
        for flight in flights:
            packet = flight.packet
            flits = packet.flits
            grants = flight.grants
            done = tau - flight.start
            if done < 0 or flight.hops == 0:
                done = 0            # still (or forever) in the LOCAL FIFO
            elif done > len(grants):
                done = len(grants)
            if scalar:
                g = flight.start
                for cur, out in grants[:done]:
                    end = g + flits
                    cell = busy_map[cur][out]
                    if cell[0] < end:
                        cell[0] = end
                    rr_map[cur][out] = 0   # a lone grant resets round-robin
                    stats.link_busy_cycles += flits
                    g += 1
            else:
                for cur, out, _g, lane in grants[:done]:
                    end = _g + flits
                    lanes_busy = busy_map[cur][out]
                    if lanes_busy[lane] < end:
                        lanes_busy[lane] = end
                    rr_map[cur][out] = 0
                    stats.link_busy_cycles += flits
            packet.hops = done
            packet.delivered = -1
            packet.qcycles = -1
            if done == 0:
                entry_node, entry_port = flight.src, _LOCAL
            elif scalar:
                cur, out = grants[done - 1]
                entry_node = hop[cur][out][0]
                entry_port = _ENTRY[out]
            else:
                cur, out, _g, _lane = grants[done - 1]
                entry_node = hop[cur][out][0]
                entry_port = _ENTRY[out]
            ports[entry_node][entry_port].queues[flight.vc].append(packet)
            occupancy[entry_node] += 1
            active.add(entry_node)
        self._x_flights.clear()
        self._x_res.clear()
        self._x_arrivals.clear()

    def _flush_express(self, upto: int) -> None:
        """Deliver every express arrival due at or before ``upto``,
        folding its executed reservations into the scalar router state."""
        arrivals = self._x_arrivals
        flights = self._x_flights
        busy_map = self._busy
        rr_map = self._rr
        res = self._x_res
        stats = self.stats
        delivery = self._delivery
        pending = self.delivery_pending
        scalar = self.lanes == 1
        done = self._x_done
        while arrivals and arrivals[0][0] <= upto:
            arrival, _penult, seq = heapq.heappop(arrivals)
            flight = flights.pop(seq)
            packet = flight.packet
            flits = packet.flits
            if scalar:
                # the busy/rr scalars already carry these windows (folded
                # at schedule time); log the flight so a later
                # materialization can replay them after its rewind.  No
                # per-hop work here — a delivery is pure arithmetic.
                done.append(flight)
                stats.link_busy_cycles += flits * (flight.hops or 1)
            else:
                for cur, out, g, lane in flight.grants:
                    end = g + flits
                    lanes_busy = busy_map[cur][out]
                    if lanes_busy[lane] < end:
                        lanes_busy[lane] = end
                    rr_map[cur][out] = 0
                    stats.link_busy_cycles += flits
                    key = (cur, out, lane)
                    entries = res[key]
                    entries.remove((g, end, flight.seq))
                    if not entries:
                        del res[key]
            packet.delivered = arrival
            packet.hops = flight.hops
            qc = arrival - packet.injected - packet.min_latency
            packet.qcycles = qc if qc > 0 else 0
            dest = packet.dest
            delivery[dest].append(packet)
            pending.add(dest)
            stats.delivered += 1
            stats.total_hops += flight.hops
            stats.total_queue_cycles += packet.qcycles
        if scalar and not flights:
            # nothing left in flight: every eagerly-folded window has
            # executed, so the scalars are exact and the rewind/replay
            # logs can be dropped
            self._x_base.clear()
            done.clear()

    # ------------------------------------------------------------------
    @staticmethod
    def _next_hop(at: Coord, dest: Coord) -> int:
        """Dimension-order routing: rows first, then columns."""
        row, col = at
        if row != dest[0]:
            return _SOUTH if dest[0] > row else _NORTH
        if col != dest[1]:
            return _EAST if dest[1] > col else _WEST
        return _LOCAL   # at destination: eject

    @staticmethod
    def _neighbor(node: Coord, out_port: int) -> Coord:
        row, col = node
        return {(_NORTH): (row - 1, col), _SOUTH: (row + 1, col),
                _EAST: (row, col + 1), _WEST: (row, col - 1)}[out_port]

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network one cycle (active routers only)."""
        now = self.cycle_count
        if self._x_arrivals:
            # express arrivals due by the end of this cycle become
            # deliveries, exactly when hop-by-hop simulation would post
            # them (delivered = grant cycle + 1)
            self._flush_express(now + 1)
        active = self._active
        if self.fast_path:
            if not active:
                self.cycle_count = now + 1
                return
            # ascending ids == the full scan's row-major order (a one-node
            # set needs no sort)
            nodes = tuple(active) if len(active) == 1 else sorted(active)
        else:
            nodes = self._nodes
        ports = self.ports
        stats = self.stats
        occupancy = self._occupancy
        moves: List[Tuple[int, Deque[Packet], Packet, int, int]] = []
        append_move = moves.append
        granted_queues: Set[int] = set()
        use_single = self.fast_path
        use_simple = use_single and self._simple
        depth = self._depth
        ctx_map = self._ctx
        q0_map = self._q0
        lbc = 0                     # link_busy_cycles, folded in once below
        for node in nodes:
            q0s, qall, route, node_busy, node_rr, node_hop = ctx_map[node]
            if use_simple:
                # Single-VC, single-lane router (the OPN): each queue
                # requests exactly one out port and each out port has one
                # lane, so no queue can be granted twice — the
                # granted_queues bookkeeping and the lane loop of the
                # general arbiter below provably never fire.
                if occupancy[node] == 1:
                    for queue in q0s:
                        if queue:
                            break
                    out = route[queue[0].did]
                else:
                    reqs = [(route[q[0].did], q) for q in q0s if q]
                    if len(reqs) == 1:
                        out, queue = reqs[0]
                    else:
                        queue = None        # several requesting FIFOs
                if queue is not None:
                    # every packet sits in one input FIFO: a lone request,
                    # granted unless the link is busy or downstream full
                    # (rr := (rr + 0 + 1) % 1 == 0 on a grant)
                    busy = node_busy[out]
                    if busy[0] <= now:
                        packet = queue[0]
                        if out == _LOCAL:
                            append_move((node, queue, packet, node, -1))
                        else:
                            neighbor, entry = node_hop[out]
                            if neighbor != packet.did and \
                                    len(q0_map[neighbor][entry]) >= depth:
                                continue
                            append_move((node, queue, packet, neighbor,
                                         entry))
                        busy[0] = now + packet.flits
                        lbc += packet.flits
                        node_rr[out] = 0
                    continue
                requests_s: Dict[int, List[Deque[Packet]]] = {}
                for out, queue in reqs:
                    bucket = requests_s.get(out)
                    if bucket is None:
                        requests_s[out] = [queue]
                    else:
                        bucket.append(queue)
                for out, queues in requests_s.items():
                    busy = node_busy[out]
                    if busy[0] > now:
                        continue
                    start = node_rr[out]
                    nq = len(queues)
                    for k in range(nq):
                        queue = queues[(start + k) % nq]
                        packet = queue[0]
                        if out == _LOCAL:
                            append_move((node, queue, packet, node, -1))
                        else:
                            neighbor, entry = node_hop[out]
                            if neighbor != packet.did and \
                                    len(q0_map[neighbor][entry]) >= depth:
                                continue
                            append_move((node, queue, packet, neighbor,
                                         entry))
                        busy[0] = now + packet.flits
                        lbc += packet.flits
                        node_rr[out] = (start + k + 1) % nq
                        break
                continue
            if use_single and occupancy[node] == 1:
                # Lone packet at this router: the arbitration below reduces
                # to "grant the head packet the first free lane of its out
                # port, unless the downstream FIFO is full" — same result,
                # no request-dict construction.
                for queue in qall:
                    if queue:
                        break
                packet = queue[0]
                out = route[packet.did]
                lanes = node_busy[out]
                for lane_idx, busy_until in enumerate(lanes):
                    if busy_until > now:
                        continue
                    if out == _LOCAL:
                        append_move((node, queue, packet, node, -1))
                    else:
                        neighbor, entry = node_hop[out]
                        if neighbor != packet.did and \
                                not ports[neighbor][entry].has_space(
                                    packet.vc):
                            break       # blocked on every lane alike
                        append_move((node, queue, packet, neighbor, entry))
                    lanes[lane_idx] = now + packet.flits
                    lbc += packet.flits
                    node_rr[out] = 0   # == (rr + 1) % 1
                    break
                continue
            # Gather head packets per output request.
            requests: Dict[int, List[Deque[Packet]]] = {}
            for queue in qall:
                if queue:
                    out = route[queue[0].did]
                    bucket = requests.get(out)
                    if bucket is None:
                        requests[out] = [queue]
                    else:
                        bucket.append(queue)
            for out, queues in requests.items():
                lanes = node_busy[out]
                start = node_rr[out]
                nq = len(queues)
                granted = 0
                for lane_idx, busy_until in enumerate(lanes):
                    if busy_until > now or granted >= nq:
                        continue
                    # round-robin over requesting queues
                    for k in range(nq):
                        queue = queues[(start + k) % nq]
                        if not queue or id(queue) in granted_queues:
                            continue
                        packet = queue[0]
                        if out == _LOCAL:
                            append_move((node, queue, packet, node, -1))
                        else:
                            neighbor, entry = node_hop[out]
                            if neighbor != packet.did and \
                                    not ports[neighbor][entry].has_space(
                                        packet.vc):
                                continue
                            append_move((node, queue, packet, neighbor,
                                         entry))
                        lanes[lane_idx] = now + packet.flits
                        lbc += packet.flits
                        node_rr[out] = (start + k + 1) % nq
                        granted_queues.add(id(queue))
                        granted += 1
                        break
        stats.link_busy_cycles += lbc
        delivery = self._delivery
        delivery_pending = self.delivery_pending
        n_delivered = total_hops = total_qc = 0
        for node, queue, packet, target, entry in moves:
            queue.popleft()
            occupancy[node] -= 1
            if not occupancy[node]:
                active.discard(node)
            if entry >= 0:
                packet.hops += 1
            if entry < 0 or target == packet.did:
                # Arrival at the destination router delivers in the same
                # cycle as the final hop: the control header launched one
                # cycle ahead (Section 3) already did wakeup, so ejection
                # adds no extra cycle.
                packet.delivered = now + 1
                src = packet.src
                dest = packet.dest
                dr = src[0] - dest[0]
                dc = src[1] - dest[1]
                qc = (now + 1 - packet.injected) \
                    - (dr if dr >= 0 else -dr) - (dc if dc >= 0 else -dc)
                packet.qcycles = qc if qc > 0 else 0
                arrived = delivery[dest]
                if not arrived:
                    delivery_pending.add(dest)
                arrived.append(packet)
                n_delivered += 1
                total_hops += packet.hops
                total_qc += packet.qcycles
            else:
                ports[target][entry].queues[packet.vc].append(packet)
                if not occupancy[target]:
                    active.add(target)
                occupancy[target] += 1
        if n_delivered:
            stats.delivered += n_delivered
            stats.total_hops += total_hops
            stats.total_queue_cycles += total_qc
        tel = self.telemetry
        if tel is not None and moves:
            coords = self._coords
            for node, _queue, packet, target, entry in moves:
                at = coords[node]
                if entry < 0:
                    direction = "eject"
                else:
                    to = coords[target]
                    dr = to[0] - at[0]
                    direction = ("S" if dr > 0 else "N") if dr else \
                        ("E" if to[1] > at[1] else "W")
                tel.note_link(at, direction, packet.flits)
                tel.note_depth(at, now + 1, occupancy[node])
                if entry >= 0 and target != packet.did:
                    tel.note_depth(coords[target], now + 1,
                                   occupancy[target])
        self.cycle_count = now + 1
