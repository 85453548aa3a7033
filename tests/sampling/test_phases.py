"""Phase clustering: BBV collection, k-means, scheduling, determinism.

The load-bearing property throughout is *byte-determinism*: the only
randomness in :mod:`repro.sampling.phases` is a fixed LCG, so the same
program + seed must yield identical assignments and window schedules
across repeated runs and across engine tiers (``TripsConfig.fast_path``
never reaches the BBV-collecting fast-forwarder).
"""

import json

import pytest

from repro.compiler import compile_tir
from repro.sampling import SamplingConfig, kmeans, plan_phases, project_bbvs
from repro.sampling.checkpoint import take_checkpoint
from repro.sampling.ffwd import FastForwarder
from repro.sampling.sampler import run_sampled_program
from repro.uarch.config import TripsConfig
from repro.workloads import get_workload


def _compiled(name, size):
    return compile_tir(get_workload(name, size=size), level="tcc").program


class TestBBVCollection:
    def test_bbv_counts_sum_to_committed_blocks(self):
        program = _compiled("mcf", 8)
        ff = FastForwarder(program, TripsConfig(), warm=False,
                           bbv_interval=100)
        ff.run_blocks(10**9)
        assert ff.halted
        vecs = ff.bbv_vectors()
        assert sum(sum(v.values()) for v in vecs) == ff.stats.blocks
        # every full interval holds exactly interval_blocks commits
        for vec in vecs[:-1]:
            assert sum(vec.values()) == 100

    def test_bbv_concatenation_matches_whole_program_histogram(self):
        program = _compiled("a2time01", 32)
        fine = FastForwarder(program, TripsConfig(), warm=False,
                             bbv_interval=75)
        fine.run_blocks(10**9)
        coarse = FastForwarder(program, TripsConfig(), warm=False,
                               bbv_interval=10**9)
        coarse.run_blocks(10**9)
        merged = {}
        for vec in fine.bbv_vectors():
            for addr, count in vec.items():
                merged[addr] = merged.get(addr, 0) + count
        (whole,) = coarse.bbv_vectors()
        assert merged == whole

    def test_bbv_off_by_default(self):
        program = _compiled("mcf", 1)
        ff = FastForwarder(program, TripsConfig(), warm=False)
        ff.run_blocks(10**9)
        assert ff.bbv_vectors() == []

    def test_collection_is_identical_warm_and_cold(self):
        program = _compiled("mcf", 4)
        runs = []
        for warm in (False, True):
            ff = FastForwarder(program, TripsConfig(), warm=warm,
                               bbv_interval=64)
            ff.run_blocks(10**9)
            runs.append(ff.bbv_vectors())
        assert runs[0] == runs[1]


class TestProjection:
    def test_projection_is_deterministic(self):
        bbvs = [{0x100: 3, 0x200: 1}, {0x200: 4}, {0x100: 2, 0x300: 2}]
        assert project_bbvs(bbvs, seed=7) == project_bbvs(bbvs, seed=7)
        assert project_bbvs(bbvs, seed=7) != project_bbvs(bbvs, seed=8)

    def test_same_mix_maps_to_same_point(self):
        # L1 normalization: proportions matter, interval length does not
        points = project_bbvs([{0x100: 1, 0x200: 3},
                               {0x100: 10, 0x200: 30}])
        assert points[0] == points[1]

    def test_points_are_bounded_by_l1_norm(self):
        points = project_bbvs([{i * 16: i + 1 for i in range(40)}], dims=8)
        for x in points[0]:
            assert -1.0 <= x <= 1.0


class TestKmeans:
    def test_separates_well_separated_clusters(self):
        points = ([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]]
                  + [[10.0, 10.0], [10.1, 10.0], [10.0, 10.1]])
        assignments, centroids, sse = kmeans(points, 2, seed=3)
        assert len(set(assignments[:4])) == 1
        assert len(set(assignments[4:])) == 1
        assert assignments[0] != assignments[4]
        assert sse < 0.1

    def test_deterministic_across_calls(self):
        rng_state = 12345
        points = []
        for _ in range(60):        # fixed LCG-generated point cloud
            rng_state = (rng_state * 1664525 + 1013904223) & 0xFFFFFFFF
            points.append([(rng_state >> 8 & 0xFF) / 255.0,
                           (rng_state >> 16 & 0xFF) / 255.0])
        a = kmeans(points, 4, seed=9)
        b = kmeans(points, 4, seed=9)
        assert a == b

    def test_k_one_centroid_is_the_mean(self):
        points = [[0.0], [2.0], [4.0]]
        assignments, centroids, _ = kmeans(points, 1)
        assert assignments == [0, 0, 0]
        assert centroids[0][0] == pytest.approx(2.0)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ValueError):
            kmeans([[0.0], [1.0]], 3)
        with pytest.raises(ValueError):
            kmeans([[0.0]], 0)


class TestPlanPhases:
    def _bimodal_bbvs(self, n=24):
        # alternating stretches of two behaviors, 12 intervals each
        a, b = {0x100: 80, 0x140: 20}, {0x800: 60, 0x840: 40}
        return [a if (i // 12) % 2 == 0 else b for i in range(n)]

    def test_finds_the_two_phases(self):
        plan = plan_phases(self._bimodal_bbvs(), interval_blocks=100,
                           total_blocks=2400, target_windows=8)
        assert plan.k == 2
        assert plan.assignments[:12].count(plan.assignments[0]) == 12
        assert plan.assignments[12] != plan.assignments[0]

    def test_weights_and_window_weights_sum_to_one(self):
        plan = plan_phases(self._bimodal_bbvs(), interval_blocks=100,
                           total_blocks=2400, target_windows=8)
        assert sum(plan.weights) == pytest.approx(1.0)
        assert sum(w.weight for w in plan.windows) == pytest.approx(1.0)

    def test_windows_sorted_and_staggered_inside_intervals(self):
        plan = plan_phases(self._bimodal_bbvs(), interval_blocks=100,
                           total_blocks=2400, target_windows=8,
                           warmup_blocks=30, measure_blocks=40)
        starts = [w.start_block for w in plan.windows]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        for w in plan.windows:
            offset = w.start_block % 100
            # warmup fits before the window, measurement fits after it,
            # all inside the window's own interval
            assert 30 <= offset <= 100 - 40
        # the stagger actually staggers: pinning every window to its
        # interval boundary is the aliasing bias all over again
        assert len({w.start_block % 100 for w in plan.windows}) > 1

    def test_partial_trailing_interval_weighs_what_it_is(self):
        # 3 intervals of 100 blocks + a 40-block tail, all one behavior
        bbvs = [{0x100: 100}] * 3 + [{0x100: 40}]
        plan = plan_phases(bbvs, interval_blocks=100, total_blocks=340,
                           target_windows=2)
        assert plan.k == 1
        assert plan.weights[0] == pytest.approx(1.0)

    def test_deterministic_plan(self):
        bbvs = self._bimodal_bbvs()
        a = plan_phases(bbvs, 100, 2400, 8, seed=5)
        b = plan_phases(bbvs, 100, 2400, 8, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_empty_bbvs_degenerate_plan(self):
        plan = plan_phases([], 100, 0, 8)
        assert plan.k == 0 and plan.windows == []


class TestTeleport:
    """``restore_arch``: the measurement pass skips cold stretches by
    jumping to profiling-pass snapshots — which must be byte-equivalent
    to executing them."""

    def test_restore_arch_matches_cold_execution(self):
        program = _compiled("mcf", 8)
        src = FastForwarder(program, TripsConfig(), warm=False)
        src.run_blocks(500)
        ckpt = take_checkpoint(src)
        walked = FastForwarder(program, TripsConfig(), warm=False)
        walked.run_blocks(500)
        jumped = FastForwarder(program, TripsConfig(), warm=False)
        jumped.restore_arch(ckpt)
        for a, b in ((walked, jumped),):
            assert a.pc == b.pc
            assert list(a.regs) == list(b.regs)
            assert a.stats.blocks == b.stats.blocks == 500
            assert a.stats.fired == b.stats.fired
            assert a.stats.reads == b.stats.reads
            assert dict(a.memory.touched_pages()) \
                == dict(b.memory.touched_pages())
        # and they stay in lockstep afterwards
        walked.run_blocks(900)
        jumped.run_blocks(900)
        assert walked.pc == jumped.pc
        assert list(walked.regs) == list(jumped.regs)
        assert dict(walked.memory.touched_pages()) \
            == dict(jumped.memory.touched_pages())

    def test_restore_arch_only_jumps_forward(self):
        program = _compiled("mcf", 8)
        ff = FastForwarder(program, TripsConfig(), warm=False)
        ff.run_blocks(300)
        ckpt = take_checkpoint(ff)
        ff.run_blocks(600)
        with pytest.raises(ValueError):
            ff.restore_arch(ckpt)

    def test_restore_arch_charges_unwarmed_blocks(self):
        program = _compiled("mcf", 8)
        src = FastForwarder(program, TripsConfig(), warm=False)
        src.run_blocks(400)
        ckpt = take_checkpoint(src)
        ff = FastForwarder(program, TripsConfig(), warm=True)
        ff.restore_arch(ckpt)
        assert ff.unwarmed_blocks == 400

    def test_clustered_run_byte_identical_without_teleport(self, monkeypatch):
        # restore_arch is a pure accelerator: with it stubbed out the
        # driver falls back to executing every cold stretch, and the
        # whole sampled result must not change by a single byte
        program = _compiled("mcf", 32)
        cfg = SamplingConfig(interval_blocks=1200, warmup_blocks=60,
                             measure_blocks=100, clustering=True,
                             phase_windows=10, warm_horizon=600)
        fast, _, _ = run_sampled_program(
            program, config=TripsConfig(), sampling=cfg)
        monkeypatch.setattr(FastForwarder, "restore_arch",
                            lambda self, ckpt: None)
        slow, _, _ = run_sampled_program(
            program, config=TripsConfig(), sampling=cfg)
        assert json.dumps(fast.to_dict(), sort_keys=True) \
            == json.dumps(slow.to_dict(), sort_keys=True)
        # the per-path block ledger tells the two apart, outside the
        # record: the teleported blocks are the cold blocks not executed
        paths, walked = fast.ffwd_blocks, slow.ffwd_blocks
        assert "ffwd_blocks" not in fast.to_dict()
        assert paths["teleported"] > 0 == walked["teleported"]
        assert paths["warm"] == walked["warm"]
        assert paths["region"] + paths["teleported"] == walked["region"]
        assert paths["fallback"] == walked["fallback"] == 0


class TestClusteredRunDeterminism:
    CFG = SamplingConfig(interval_blocks=800, warmup_blocks=80,
                         measure_blocks=120, clustering=True,
                         phase_windows=6, warm_horizon=400)

    def test_byte_identical_across_runs(self):
        program = _compiled("mcf", 8)
        blobs = []
        for _ in range(2):
            sampled, _, _ = run_sampled_program(
                program, config=TripsConfig(), sampling=self.CFG)
            blobs.append(json.dumps(sampled.to_dict(), sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_schedule_identical_across_engine_tiers(self):
        # fast_path switches the detailed engine's implementation, not
        # its behavior — and never touches the BBV profiling pass, so
        # the phase schedule (and the estimates) must agree exactly
        program = _compiled("mcf", 8)
        results = []
        for fast in (True, False):
            sampled, _, _ = run_sampled_program(
                program, config=TripsConfig(fast_path=fast),
                sampling=self.CFG)
            results.append(sampled)
        sched = [[(d["start_block"], d["phase"], d["weight"])
                  for d in s.window_detail] for s in results]
        assert sched[0] == sched[1]
        assert results[0].cycles_est == results[1].cycles_est
        assert results[0].phase_weights == results[1].phase_weights

    def test_phase_fields_populated(self):
        program = _compiled("mcf", 8)
        sampled, _, _ = run_sampled_program(
            program, config=TripsConfig(), sampling=self.CFG)
        assert sampled.phases >= 1
        assert len(sampled.phase_weights) == sampled.phases
        assert sum(sampled.phase_weights) == pytest.approx(1.0)
        for d in sampled.window_detail:
            assert d["phase"] >= 0 and d["weight"] > 0
