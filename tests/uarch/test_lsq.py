"""Unit and property tests for the LSQ and the dependence predictor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.lsq import DependencePredictor, LoadStoreQueue, LsqEntry
from repro.uarch.lsq import _overlap


class _ReferenceLsq:
    """The original full-scan LSQ: every lookup walks every entry.

    Kept as the specification the indexed :class:`LoadStoreQueue` must
    match operation for operation.
    """

    def __init__(self, capacity=256):
        self.capacity = capacity
        self.entries = {}
        self.peak_occupancy = 0

    def insert_store(self, key, address, size, data, nullified=False):
        if key in self.entries:
            raise ValueError(f"duplicate LSQ key {key}")
        entry = LsqEntry(key=key, is_store=True, address=address, size=size,
                         data=data, nullified=nullified)
        self.entries[key] = entry
        self.peak_occupancy = max(self.peak_occupancy, len(self.entries))
        if nullified or address is None:
            return []
        violators = []
        for other in self.entries.values():
            if other.is_store or other.key <= key or other.address is None:
                continue
            if _overlap(address, size, other.address, other.size):
                violators.append(other.key)
        return sorted(violators)

    def insert_load(self, key, address, size):
        if key in self.entries:
            raise ValueError(f"duplicate LSQ key {key}")
        self.entries[key] = LsqEntry(key=key, is_store=False,
                                     address=address, size=size)
        self.peak_occupancy = max(self.peak_occupancy, len(self.entries))

    def forward(self, key, address, size, memory_bytes):
        result = bytearray(memory_bytes)
        for skey in sorted(k for k, e in self.entries.items()
                           if e.is_store and k < key):
            entry = self.entries[skey]
            if entry.nullified or entry.address is None:
                continue
            lo = max(address, entry.address)
            hi = min(address + size, entry.address + entry.size)
            if lo >= hi:
                continue
            data = (entry.data & ((1 << (8 * entry.size)) - 1)).to_bytes(
                entry.size, "little")
            for b in range(lo, hi):
                result[b - address] = data[b - entry.address]
        return int.from_bytes(result, "little")

    def flush_blocks(self, seqs):
        doomed = [k for k in self.entries if k[0] in seqs]
        for k in doomed:
            del self.entries[k]
        return len(doomed)

    def commit_block(self, seq):
        keys = sorted(k for k in self.entries if k[0] == seq)
        out = []
        for k in keys:
            entry = self.entries.pop(k)
            if entry.is_store and not entry.nullified:
                out.append(entry)
        return out


class TestLsqBasics:
    def test_forward_exact_match(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x100, 8, 0xAABBCCDD)
        got = lsq.forward((0, 1), 0x100, 8, b"\x00" * 8)
        assert got == 0xAABBCCDD

    def test_forward_respects_program_order(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x100, 8, 1)
        lsq.insert_store((0, 2), 0x100, 8, 2)    # younger store
        # a load between them sees only the first
        assert lsq.forward((0, 1), 0x100, 8, b"\x00" * 8) == 1
        # a load after both sees the second
        assert lsq.forward((1, 0), 0x100, 8, b"\x00" * 8) == 2

    def test_partial_overlap_merges_bytes(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x102, 2, 0xBEEF)
        raw = (0x1111111111111111).to_bytes(8, "little")
        got = lsq.forward((0, 1), 0x100, 8, raw)
        assert got == 0x11111111BEEF1111

    def test_nullified_store_is_transparent(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), None, 8, 0, nullified=True)
        assert lsq.forward((0, 1), 0x100, 8, b"\x07" + b"\x00" * 7) == 7

    def test_violation_detects_younger_executed_load(self):
        lsq = LoadStoreQueue()
        lsq.insert_load((1, 3), 0x100, 8)        # younger load ran early
        violators = lsq.insert_store((0, 5), 0x104, 4, 0xFF)
        assert violators == [(1, 3)]

    def test_no_violation_for_older_or_disjoint_loads(self):
        lsq = LoadStoreQueue()
        lsq.insert_load((0, 1), 0x100, 8)        # older than the store
        lsq.insert_load((2, 0), 0x200, 8)        # disjoint address
        assert lsq.insert_store((1, 0), 0x100, 8, 1) == []

    def test_commit_drains_in_lsid_order(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 5), 0x108, 8, 2)
        lsq.insert_store((0, 1), 0x100, 8, 1)
        lsq.insert_load((0, 3), 0x100, 8)
        entries = lsq.commit_block(0)
        assert [e.key for e in entries] == [(0, 1), (0, 5)]
        assert lsq.occupancy() == 0

    def test_flush_removes_only_named_blocks(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x100, 8, 1)
        lsq.insert_store((1, 0), 0x108, 8, 2)
        lsq.flush_blocks({1})
        assert (0, 0) in lsq.entries and (1, 0) not in lsq.entries

    def test_duplicate_key_rejected(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x100, 8, 1)
        with pytest.raises(ValueError):
            lsq.insert_store((0, 0), 0x100, 8, 1)


class TestForwardingProperty:
    """Byte-granular forwarding equals a naive byte-replay reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 3),                       # block seq
        st.integers(0, 31),                      # lsid
        st.integers(0x100, 0x11F),               # address
        st.sampled_from([1, 2, 4, 8]),           # size
        st.integers(0, 2**64 - 1)),              # data
        min_size=1, max_size=12,
        unique_by=lambda t: (t[0], t[1])),
        st.tuples(st.integers(0, 4), st.integers(0, 31),
                  st.integers(0x100, 0x118), st.sampled_from([1, 2, 4, 8])))
    def test_matches_byte_replay(self, stores, load):
        lsq = LoadStoreQueue()
        for seq, lsid, addr, size, data in stores:
            lsq.insert_store((seq, lsid), addr, size, data)
        lseq, llsid, laddr, lsize = load
        base = bytes((i * 37) % 256 for i in range(lsize))
        got = lsq.forward((lseq, llsid), laddr, lsize, base)

        # reference: replay older stores byte by byte in program order
        mem = {laddr + i: base[i] for i in range(lsize)}
        for seq, lsid, addr, size, data in sorted(stores):
            if (seq, lsid) >= (lseq, llsid):
                continue
            payload = (data & ((1 << (8 * size)) - 1)).to_bytes(size,
                                                                "little")
            for i in range(size):
                if addr + i in mem:
                    mem[addr + i] = payload[i]
        expect = int.from_bytes(
            bytes(mem[laddr + i] for i in range(lsize)), "little")
        assert got == expect


_op = st.one_of(
    st.tuples(st.just("store"), st.integers(0, 5), st.integers(0, 31),
              st.integers(0x100, 0x11F), st.sampled_from([1, 2, 4, 8]),
              st.integers(0, 2**64 - 1), st.booleans()),
    st.tuples(st.just("load"), st.integers(0, 5), st.integers(0, 31),
              st.integers(0x100, 0x11F), st.sampled_from([1, 2, 4, 8])),
    st.tuples(st.just("commit"), st.integers(0, 5)),
    st.tuples(st.just("flush"), st.sets(st.integers(0, 5), max_size=3)))


class TestIndexedLsqMatchesReference:
    """Random insert/forward/commit/flush sequences: the indexed LSQ and
    the full-scan reference agree on every result and every entry."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_op, min_size=1, max_size=60))
    def test_random_sequence(self, ops):
        fast, ref = LoadStoreQueue(), _ReferenceLsq()
        for op in ops:
            kind = op[0]
            if kind == "store":
                _, seq, lsid, addr, size, data, null = op
                args = ((seq, lsid), None if null else addr, size, data, null)
                results = []
                for lsq in (fast, ref):
                    try:
                        results.append(lsq.insert_store(*args))
                    except ValueError:
                        results.append("duplicate")
                assert results[0] == results[1]
            elif kind == "load":
                _, seq, lsid, addr, size = op
                results = []
                for lsq in (fast, ref):
                    try:
                        lsq.insert_load((seq, lsid), addr, size)
                        base = bytes((addr + i) % 251 for i in range(size))
                        results.append(lsq.forward((seq, lsid), addr, size,
                                                   base))
                    except ValueError:
                        results.append("duplicate")
                assert results[0] == results[1]
            elif kind == "commit":
                got = [(e.key, e.address, e.size, e.data)
                       for e in fast.commit_block(op[1])]
                want = [(e.key, e.address, e.size, e.data)
                        for e in ref.commit_block(op[1])]
                assert got == want
            else:
                assert fast.flush_blocks(op[1]) == ref.flush_blocks(op[1])
            assert sorted(fast.entries) == sorted(ref.entries)
            assert fast.peak_occupancy == ref.peak_occupancy


class TestDependencePredictor:
    def test_learns_and_clears(self):
        pred = DependencePredictor(bits=64, clear_interval=3)
        assert not pred.predict_dependent(0x100)
        pred.record_violation(0x100)
        assert pred.predict_dependent(0x100)
        # aliasing: addresses sharing the hash bit also defer
        assert pred.predict_dependent(0x100 + 64 * 8)
        for _ in range(3):
            pred.on_block_commit()
        assert not pred.predict_dependent(0x100)
        assert pred.clears == 1

    def test_disabled_never_predicts(self):
        pred = DependencePredictor(enabled=False)
        pred.record_violation(0x100)
        assert not pred.predict_dependent(0x100)
