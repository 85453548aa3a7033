"""The interval-sampling driver: fast-forward, checkpoint, measure.

The fast-forwarder is the master timeline — it retires every block of the
program (so architectural outputs and instruction counts are exact) and
carries warm predictor/cache state.  At each sample point it is
checkpointed, and a cycle-accurate :class:`~repro.uarch.proc.TripsProcessor`
is resumed from the checkpoint for ``warmup_blocks`` (stats discarded —
this rebuilds the short-lived state a checkpoint cannot carry: in-flight
blocks, LSQ, dependence predictor, event wheel) followed by
``measure_blocks`` whose deltas become one
:class:`~repro.sampling.stats.WindowSample`.

Telemetry: probes exist only inside window processors — the fast-forward
path has no probe sites at all, so ``telemetry=True`` costs nothing
outside the measurement windows and yields one summary per window.

A program too short for even one window (shorter than ``offset_blocks``
plus one measurement) degenerates to a single full-length window, i.e.
ordinary full simulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..compiler import compile_tir
from ..tir import TirProgram, interpret
from ..uarch.config import PROTOTYPE, TripsConfig
from ..uarch.proc import TripsProcessor
from .checkpoint import ArchCheckpoint, take_checkpoint
from .ffwd import FastForwarder
from .stats import (RATE_FIELDS, SampledProcStats, WindowSample, aggregate,
                    aggregate_phases)


@dataclass(frozen=True)
class SamplingConfig:
    """Sample-point geometry, in committed blocks.

    One measurement window of ``measure_blocks`` starts every
    ``interval_blocks`` (the first at ``offset_blocks``), preceded by
    ``warmup_blocks`` of discarded detailed simulation.

    ``warm_horizon`` bounds *functional* warming: ``None`` keeps the
    fast-forwarder's predictor/cache warming on for every block (most
    accurate); a block count H warms only the last H blocks before each
    detailed window, letting the stretches in between run at full
    fast-forward speed.  Tables are never cleared, so bounded warming
    only makes warm state slightly stale, and the detailed warmup still
    runs on top of it.

    ``jitter`` staggers each window start by a deterministic
    pseudo-random offset of up to ``jitter * interval_blocks`` blocks
    (stratified sampling).  Strictly-periodic sample points can alias
    against a program's own period — e.g. 41 windows every 1052 blocks
    over dct8x8's 2630-block macroblock loop land on just 5 distinct
    phases (5*1052 = 2*2630), turning phase structure into bias.  The
    stagger sequence is a fixed LCG, so runs stay reproducible.

    ``clustering=True`` replaces the stratified-stride schedule with
    SimPoint-style phase clustering (:mod:`~repro.sampling.phases`): a
    cold fast-forward profiling pass collects one basic-block vector
    per ``interval_blocks``, k-means (k chosen by a BIC-style score up
    to ``max_phases``) groups the intervals into behavioral phases, and
    ~``phase_windows`` measurement windows are placed on representative
    intervals in proportion to phase population.  Estimates become
    population-weighted (:func:`~repro.sampling.stats.aggregate_phases`)
    and ``jitter``/``offset_blocks`` are ignored.  All randomness comes
    from the fixed LCG seeded by ``phase_seed``, so schedules are
    byte-identical across runs.
    """

    interval_blocks: int = 2000
    warmup_blocks: int = 150
    measure_blocks: int = 300
    offset_blocks: int = 0
    warm_horizon: Optional[int] = None
    jitter: float = 0.25
    clustering: bool = False
    phase_windows: int = 12
    max_phases: int = 8
    phase_seed: int = 1

    def to_dict(self) -> Dict[str, object]:
        return {"interval_blocks": self.interval_blocks,
                "warmup_blocks": self.warmup_blocks,
                "measure_blocks": self.measure_blocks,
                "offset_blocks": self.offset_blocks,
                "warm_horizon": self.warm_horizon,
                "jitter": self.jitter,
                "clustering": self.clustering,
                "phase_windows": self.phase_windows,
                "max_phases": self.max_phases,
                "phase_seed": self.phase_seed}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SamplingConfig":
        horizon = data.get("warm_horizon")
        return cls(interval_blocks=int(data["interval_blocks"]),
                   warmup_blocks=int(data["warmup_blocks"]),
                   measure_blocks=int(data["measure_blocks"]),
                   offset_blocks=int(data.get("offset_blocks", 0)),
                   warm_horizon=None if horizon is None else int(horizon),
                   jitter=float(data.get("jitter", 0.25)),
                   clustering=bool(data.get("clustering", False)),
                   phase_windows=int(data.get("phase_windows", 12)),
                   max_phases=int(data.get("max_phases", 8)),
                   phase_seed=int(data.get("phase_seed", 1)))

    def validate(self) -> None:
        if self.measure_blocks <= 0 or self.interval_blocks <= 0:
            raise ValueError("interval/measure block counts must be > 0")
        if self.warmup_blocks < 0 or self.offset_blocks < 0:
            raise ValueError("warmup/offset block counts must be >= 0")
        if self.clustering:
            if self.measure_blocks + self.warmup_blocks \
                    > self.interval_blocks:
                raise ValueError("windows overlap: warmup + measure must "
                                 "fit inside one clustering interval "
                                 f"({self.interval_blocks} blocks)")
            if self.phase_windows < 1:
                raise ValueError("phase_windows must be >= 1")
            if self.max_phases < 1:
                raise ValueError("max_phases must be >= 1")
        else:
            min_gap = self.interval_blocks - 2 * int(self.jitter *
                                                     self.interval_blocks)
            if self.measure_blocks + self.warmup_blocks > min_gap:
                raise ValueError("windows overlap: warmup + measure exceeds "
                                 "the worst-case jittered sampling gap "
                                 f"({min_gap} blocks)")
        if self.warm_horizon is not None and self.warm_horizon < 0:
            raise ValueError("warm_horizon must be >= 0 or None")
        if not 0.0 <= self.jitter <= 0.4:
            raise ValueError("jitter must be in [0, 0.4]")

    def window_start(self, k: int) -> int:
        """Measurement-start block index of window ``k`` (jittered)."""
        base = self.offset_blocks + k * self.interval_blocks
        if not self.jitter:
            return base
        # fixed LCG (numerical recipes constants): deterministic stagger
        u = ((k * 1664525 + 1013904223) & 0xFFFFFFFF) / 0x100000000
        span = int(self.jitter * self.interval_blocks)
        return base + int((2 * u - 1.0) * span)


def _block_paths(*ffs: FastForwarder) -> Dict[str, int]:
    """Blocks per fast-forward path, summed over ``ffs``."""
    total: Dict[str, int] = {}
    for ff in ffs:
        for path, count in ff.block_paths().items():
            total[path] = total.get(path, 0) + count
    return total


def _counter_snapshot(stats) -> Dict[str, int]:
    return {name: getattr(stats, name) for name in RATE_FIELDS}


def _detailed_window(program, config: TripsConfig, ff: FastForwarder,
                     start: int, measure_blocks: int, telemetry,
                     summaries: List[dict],
                     **tags) -> Optional[WindowSample]:
    """One measurement window: checkpoint ``ff``, resume a cycle-accurate
    processor from it, warm up to block ``start`` (stats discarded) and
    measure the next ``measure_blocks``.  None when the program ends
    before a block is measured.  ``tags`` are the phase-clustered
    scheduler's ``phase``/``weight``."""
    proc = TripsProcessor(program, config, telemetry=telemetry,
                          checkpoint=take_checkpoint(ff))
    warm_target = start - ff.stats.blocks
    if warm_target:
        proc.run(until_blocks=warm_target)
    if proc.halted and proc.stats.blocks_committed <= warm_target:
        return None             # program ended inside the warmup span
    proc.finalize_stats()
    cycles0 = proc.cycle
    insts0 = proc.stats.insts_committed
    reads0 = proc.stats.reads_committed
    counters0 = _counter_snapshot(proc.stats)
    proc.run(until_blocks=warm_target + measure_blocks)
    proc.finalize_stats()
    measured = proc.stats.blocks_committed - warm_target
    if measured <= 0:
        return None
    counters = {name: getattr(proc.stats, name) - counters0[name]
                for name in RATE_FIELDS}
    if proc.tel is not None:
        summaries.append(proc.tel.summary().to_dict())
    return WindowSample(
        start_block=start, blocks=measured,
        cycles=proc.cycle - cycles0,
        insts=proc.stats.insts_committed - insts0,
        reads=proc.stats.reads_committed - reads0,
        counters=counters, lsq_peak=proc.stats.lsq_peak, **tags)


def _full_run_window(program, config: TripsConfig, telemetry,
                     summaries: List[dict], **tags) -> WindowSample:
    """The short-program fallback: one full-length window, i.e. ordinary
    full simulation (exact, zero error)."""
    proc = TripsProcessor(program, config, telemetry=telemetry)
    stats = proc.run()
    if proc.tel is not None:
        summaries.append(proc.tel.summary().to_dict())
    return WindowSample(
        start_block=0, blocks=stats.blocks_committed,
        cycles=stats.cycles, insts=stats.insts_committed,
        reads=stats.reads_committed,
        counters=_counter_snapshot(stats), lsq_peak=stats.lsq_peak, **tags)


def _sample_windows(program, config: TripsConfig, ff: FastForwarder,
                    sampling: SamplingConfig, points: Iterable,
                    telemetry, summaries: List[dict],
                    restarts: Sequence[ArchCheckpoint] = ()
                    ) -> List[WindowSample]:
    """Measure one detailed window per ``(start, tags)`` sample point
    until the program ends.

    ``ff`` is fast-forwarded to each window's warmup start: cold up to
    the warming horizon when ``sampling.warm_horizon`` is set, warm after
    it.  ``restarts`` are architectural snapshots in block order; the
    cold stretch teleports to the latest one it reaches instead of
    re-executing (none: no teleport).  ``tags`` go to the
    :class:`WindowSample`.
    """
    horizon = sampling.warm_horizon
    windows: List[WindowSample] = []
    ri = 0                      # next snapshot to consider
    for start, tags in points:
        start = max(start, ff.stats.blocks)
        warm_start = max(0, start - sampling.warmup_blocks)
        if horizon is not None:
            cold_target = max(ff.stats.blocks, warm_start - horizon)
            jump = None
            while ri < len(restarts) and \
                    restarts[ri].blocks <= cold_target:
                jump = restarts[ri]
                ri += 1
            if jump is not None and jump.blocks > ff.stats.blocks:
                ff.restore_arch(jump)
            ff.warm = False
            ff.run_blocks(cold_target)
            ff.warm = True
        ff.run_blocks(warm_start)
        if ff.halted:
            break
        window = _detailed_window(program, config, ff, start,
                                  sampling.measure_blocks, telemetry,
                                  summaries, **tags)
        if window is not None:
            windows.append(window)
    return windows


def _run_clustered(program, config: TripsConfig,
                   sampling: SamplingConfig, telemetry,
                   max_blocks: int) -> Tuple[SampledProcStats,
                                             FastForwarder, List[dict],
                                             "PhasePlan"]:
    """The phase-clustered sampling driver (``clustering=True``).

    Two fast-forward passes instead of one, both mostly *cold*:

    1. A profiling pass (``warm=False`` + BBV collection) retires every
       block — it is the source of the exact architectural outputs and
       the exact block/instruction totals, and its per-interval BBVs
       feed :func:`~repro.sampling.phases.plan_phases`.
    2. A measurement pass that replays only up to the *last* scheduled
       window (the totals are already known), warming predictor/cache
       state continuously when ``warm_horizon`` is ``None`` or only
       within the horizon of each window when it is set.

    With a ``warm_horizon`` the measurement pass does not even replay:
    the profiling pass snapshots architectural state at every interval
    boundary, and since a cold stretch touches nothing *but*
    architectural state, the measurement fast-forwarder teleports to the
    latest snapshot before each window's warming horizon
    (:meth:`~repro.sampling.ffwd.FastForwarder.restore_arch`) instead of
    re-executing the stretch — byte-identical estimates, but the
    second pass shrinks from O(program) to O(windows * interval).

    Returns the plan alongside the usual triple so callers can report
    phase counts and weights.
    """
    from .phases import plan_phases

    prof = FastForwarder(program, config, warm=False,
                         max_blocks=max_blocks,
                         bbv_interval=sampling.interval_blocks)
    restarts: List[ArchCheckpoint] = []
    boundary = sampling.interval_blocks
    while not prof.halted:
        prof.run_blocks(boundary)
        if not prof.halted:
            restarts.append(take_checkpoint(prof))
        boundary += sampling.interval_blocks
    plan = plan_phases(prof.bbv_vectors(), sampling.interval_blocks,
                       total_blocks=prof.stats.blocks,
                       target_windows=sampling.phase_windows,
                       warmup_blocks=sampling.warmup_blocks,
                       measure_blocks=sampling.measure_blocks,
                       seed=sampling.phase_seed,
                       max_phases=sampling.max_phases)

    ff = FastForwarder(program, config,
                       warm=(sampling.warm_horizon is None),
                       max_blocks=max_blocks)
    summaries: List[dict] = []
    # a program shorter than two clustering intervals has no phase
    # structure to exploit — skip straight to the full-simulation
    # fallback below (exact, single phase) instead of estimating the
    # whole program with one partial window and an unbounded CI
    points = ((win.start_block, {"phase": win.phase, "weight": win.weight})
              for win in (plan.windows if plan.n_intervals > 1 else ()))
    windows = _sample_windows(program, config, ff, sampling, points,
                              telemetry, summaries, restarts)

    k, weights = plan.k, plan.weights
    if not windows:
        # program shorter than one clustering interval (or every window
        # fell past program end): one full-length window == exact full
        # simulation, reported as a single phase of weight 1
        windows.append(_full_run_window(program, config, telemetry,
                                        summaries, phase=0, weight=1.0))
        k, weights = 1, [1.0]
    sampled = aggregate_phases(windows, prof.stats.blocks,
                               prof.stats.fired, prof.stats.reads,
                               k=k, phase_weights=weights)
    sampled.ffwd_blocks = _block_paths(prof, ff)
    return sampled, prof, summaries, plan


def run_sampled_program(program, config: TripsConfig = PROTOTYPE,
                        sampling: SamplingConfig = SamplingConfig(),
                        telemetry=None,
                        max_blocks: int = 500_000_000,
                        ) -> Tuple[SampledProcStats, FastForwarder,
                                   List[dict]]:
    """Sample one compiled :class:`~repro.isa.program.Program`.

    Returns the aggregated stats, the (completed) fast-forwarder — whose
    ``regs``/``memory`` hold the exact architectural results — and one
    telemetry summary dict per window when ``telemetry`` is set.

    With ``sampling.clustering`` the stride schedule is replaced by the
    phase-clustered driver (see :func:`_run_clustered`); the returned
    fast-forwarder is then the completed profiling pass.
    """
    sampling.validate()
    if sampling.clustering:
        sampled, ff, summaries, _ = _run_clustered(
            program, config or PROTOTYPE, sampling, telemetry, max_blocks)
        return sampled, ff, summaries
    ff = FastForwarder(program, config, warm=True, max_blocks=max_blocks)
    summaries: List[dict] = []
    points = ((sampling.window_start(k), {}) for k in itertools.count())
    windows = _sample_windows(program, config, ff, sampling, points,
                              telemetry, summaries)

    if not windows:
        # program shorter than one sampling period: fall back to one
        # full-length window (= ordinary full simulation, zero error)
        windows.append(_full_run_window(program, config, telemetry,
                                        summaries))

    sampled = aggregate(windows, ff.stats.blocks, ff.stats.fired,
                        ff.stats.reads)
    sampled.ffwd_blocks = _block_paths(ff)
    return sampled, ff, summaries


@dataclass
class SampledRun:
    """One workload's sampled-simulation result."""

    name: str
    level: str
    sampled: SampledProcStats
    fallback_blocks: int = 0
    telemetry_windows: List[dict] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        return self.sampled.cycles_est

    @property
    def ipc(self) -> float:
        return self.sampled.ipc_est

    @property
    def ffwd_blocks(self) -> Dict[str, int]:
        """Blocks per fast-forward path (region, warm, fallback,
        teleported) over every fast-forwarder of the run."""
        return self.sampled.ffwd_blocks


def run_sampled_workload(workload, level: str = "tcc",
                         config: Optional[TripsConfig] = None,
                         sampling: SamplingConfig = SamplingConfig(),
                         telemetry=None, validate: bool = True,
                         size: int = 1) -> SampledRun:
    """Compile and sample one workload, co-validating architectural
    outputs (from the fast-forwarder, which executes every block) against
    the TIR interpreter's golden results."""
    from ..workloads import get_workload
    if isinstance(workload, TirProgram):
        tir = workload
    else:
        tir = get_workload(workload, size=size)
    compiled = compile_tir(tir, level=level)
    sampled, ff, summaries = run_sampled_program(
        compiled.program, config=config or TripsConfig(),
        sampling=sampling, telemetry=telemetry)
    if validate:
        golden = interpret(tir).output_signature(tir.outputs)
        got = compiled.extract_outputs(ff.regs, ff.memory)
        if got != golden:
            from ..harness.runner import ValidationError
            raise ValidationError(
                f"{tir.name}@{level}: sampled outputs diverge from golden")
    return SampledRun(name=tir.name, level=level, sampled=sampled,
                      fallback_blocks=ff.fallback_blocks,
                      telemetry_windows=summaries)
