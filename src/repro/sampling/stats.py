"""Statistical aggregation of sampled measurement windows.

SMARTS-style estimation: the fast-forwarder retires *every* block, so
``blocks_total`` / ``insts_total`` / ``reads_total`` are exact; only the
*timing* is sampled.  Each measurement window contributes one observation
of cycles-per-block, and the whole-program cycle count is the mean CPB
scaled by the exact block count, with a confidence interval from the
inter-window variance (Student t for small window counts).  Event
counters (flushes, network messages, cache misses) extrapolate the same
way; ``lsq_peak`` is a peak, not a rate, and reports the maximum seen in
any window.

``SampledProcStats`` round-trips through :mod:`repro.serialize` like the
other stats dataclasses (Python's ``json`` emits ``repr``-exact floats,
so serialization is lossless here too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: two-sided 95% Student-t quantiles by degrees of freedom (1-30);
#: beyond 30 the normal quantile is within 2%.
_T95 = [12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042]
_Z95 = 1.960


def t95(df: int) -> float:
    """95% two-sided Student-t critical value."""
    if df <= 0:
        return float("inf")
    if df <= len(_T95):
        return _T95[df - 1]
    return _Z95


#: ProcStats counters extrapolated as per-block rates.
RATE_FIELDS = ("blocks_flushed", "blocks_fetched", "flushes_mispredict",
               "flushes_violation", "icache_miss_blocks", "deferred_loads",
               "gdn_messages", "gcn_messages", "gsn_messages",
               "grn_messages", "dsn_messages", "opn_messages")


@dataclass
class WindowSample:
    """Raw deltas of one measurement window (warmup already excluded).

    ``phase``/``weight`` are set only by the phase-clustered scheduler
    (:mod:`~repro.sampling.phases`): the cluster this window samples and
    the population share it represents.  Stride-scheduled windows leave
    them at their defaults and serialize without the keys, so the
    defaults-off record format is unchanged.
    """

    start_block: int                 # block index where measurement began
    blocks: int
    cycles: int
    insts: int
    reads: int
    counters: Dict[str, int] = field(default_factory=dict)
    lsq_peak: int = 0
    phase: int = -1
    weight: float = 0.0

    def to_dict(self) -> dict:
        data = {"start_block": self.start_block, "blocks": self.blocks,
                "cycles": self.cycles, "insts": self.insts,
                "reads": self.reads, "counters": dict(self.counters),
                "lsq_peak": self.lsq_peak}
        if self.phase >= 0:
            data["phase"] = self.phase
            data["weight"] = self.weight
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WindowSample":
        return cls(start_block=data["start_block"], blocks=data["blocks"],
                   cycles=data["cycles"], insts=data["insts"],
                   reads=data["reads"],
                   counters=dict(data.get("counters", {})),
                   lsq_peak=data.get("lsq_peak", 0),
                   phase=data.get("phase", -1),
                   weight=data.get("weight", 0.0))


@dataclass
class SampledProcStats:
    """Whole-program estimates from interval-sampled simulation.

    Exact fields (from the functional fast-forward): ``blocks_total``,
    ``insts_total``, ``reads_total``.  Estimated fields carry a 95%
    confidence half-width in the matching ``*_ci`` field.

    ``phases``/``phase_weights`` are populated only by the
    phase-clustered estimator (:func:`aggregate_phases`): the number of
    behavioral phases found and each phase's population share.  They are
    dropped from ``to_dict`` when unset, keeping the defaults-off
    serialization byte-identical to the stride-scheduled sampler's.
    """

    blocks_total: int = 0
    insts_total: int = 0
    reads_total: int = 0
    windows: int = 0
    measured_blocks: int = 0
    measured_cycles: int = 0
    measured_insts: int = 0
    cycles_est: float = 0.0
    cycles_ci: float = 0.0
    ipc_est: float = 0.0
    ipc_ci: float = 0.0
    lsq_peak: int = 0
    rates: Dict[str, float] = field(default_factory=dict)
    rates_ci: Dict[str, float] = field(default_factory=dict)
    window_detail: List[dict] = field(default_factory=list)
    phases: int = 0
    phase_weights: List[float] = field(default_factory=list)
    #: blocks per fast-forward path, summed over the run's
    #: fast-forwarders (``FastForwarder.block_paths``): how the host got
    #: through the program, not an estimate, so it stays out of
    #: ``to_dict`` and of equality
    ffwd_blocks: Dict[str, int] = field(default_factory=dict,
                                        compare=False)

    @property
    def coverage(self) -> float:
        """Fraction of blocks simulated cycle-accurately (measured only)."""
        return self.measured_blocks / self.blocks_total \
            if self.blocks_total else 0.0

    def to_dict(self) -> dict:
        from ..serialize import dataclass_to_dict
        data = dataclass_to_dict(self)
        data["rates"] = dict(self.rates)
        data["rates_ci"] = dict(self.rates_ci)
        data["window_detail"] = list(self.window_detail)
        del data["ffwd_blocks"]
        if not self.phases:             # defaults-off: PR-7 record format
            del data["phases"]
            del data["phase_weights"]
        else:
            data["phase_weights"] = list(self.phase_weights)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SampledProcStats":
        from ..serialize import dataclass_from_dict
        return dataclass_from_dict(cls, data)


def _mean_ci(values: List[float]) -> (float, float):
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, float("inf")
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, t95(n - 1) * math.sqrt(var / n)


def aggregate(windows: List[WindowSample], blocks_total: int,
              insts_total: int, reads_total: int) -> SampledProcStats:
    """Fold window observations into whole-program estimates."""
    if not windows:
        raise ValueError("no measurement windows to aggregate")
    usable = [w for w in windows if w.blocks > 0]
    if not usable:
        raise ValueError("every measurement window is empty")

    cpb = [w.cycles / w.blocks for w in usable]
    cpb_mean, cpb_ci = _mean_ci(cpb)
    cycles_est = cpb_mean * blocks_total
    cycles_ci = cpb_ci * blocks_total

    ipc_est = insts_total / cycles_est if cycles_est else 0.0
    # delta method: d(ipc)/d(cycles) = -insts/cycles^2
    ipc_ci = (insts_total / cycles_est ** 2) * cycles_ci \
        if cycles_est and math.isfinite(cycles_ci) else float("inf")

    rates: Dict[str, float] = {}
    rates_ci: Dict[str, float] = {}
    for name in RATE_FIELDS:
        per_block = [w.counters.get(name, 0) / w.blocks for w in usable]
        mean, ci = _mean_ci(per_block)
        rates[name] = mean * blocks_total
        rates_ci[name] = ci * blocks_total if math.isfinite(ci) \
            else float("inf")

    return SampledProcStats(
        blocks_total=blocks_total,
        insts_total=insts_total,
        reads_total=reads_total,
        windows=len(usable),
        measured_blocks=sum(w.blocks for w in usable),
        measured_cycles=sum(w.cycles for w in usable),
        measured_insts=sum(w.insts for w in usable),
        cycles_est=cycles_est,
        cycles_ci=cycles_ci,
        ipc_est=ipc_est,
        ipc_ci=ipc_ci,
        lsq_peak=max(w.lsq_peak for w in usable),
        rates=rates,
        rates_ci=rates_ci,
        window_detail=[w.to_dict() for w in usable],
    )


def _weighted_stats(values_by_phase: Dict[int, List[float]],
                    weights: Dict[int, float]) -> (float, float, int):
    """Stratified point estimate + variance of the estimate + df.

    Strata are phases; the estimate is the population-weighted mean of
    per-phase means, the variance is ``sum(w_c^2 * s_c^2 / n_c)``.
    Singleton strata (one window) cannot estimate their own variance, so
    they borrow the pooled within-phase variance of the multi-window
    strata; when *every* stratum is a singleton, the between-window
    variance over all windows stands in — an overestimate (it includes
    the between-phase spread the stratification removed), so the CI errs
    wide, never narrow.
    """
    est = sum(weights[c] * (sum(vals) / len(vals))
              for c, vals in values_by_phase.items())
    pooled_num = pooled_den = 0
    for vals in values_by_phase.values():
        n = len(vals)
        if n >= 2:
            mean = sum(vals) / n
            pooled_num += sum((v - mean) ** 2 for v in vals)
            pooled_den += n - 1
    if pooled_den:
        pooled = pooled_num / pooled_den
        var = sum(weights[c] ** 2 * pooled / len(vals)
                  if len(vals) < 2 else
                  weights[c] ** 2
                  * (sum((v - sum(vals) / len(vals)) ** 2
                         for v in vals) / (len(vals) - 1)) / len(vals)
                  for c, vals in values_by_phase.items())
        return est, var, pooled_den
    everything = [v for vals in values_by_phase.values() for v in vals]
    n_all = len(everything)
    if n_all < 2:
        return est, float("inf"), 0
    mean = sum(everything) / n_all
    s2 = sum((v - mean) ** 2 for v in everything) / (n_all - 1)
    var = sum(weights[c] ** 2 * s2 for c in values_by_phase)
    return est, var, n_all - 1


def aggregate_phases(windows: List[WindowSample], blocks_total: int,
                     insts_total: int, reads_total: int,
                     k: int, phase_weights: List[float]
                     ) -> SampledProcStats:
    """Fold phase-scheduled windows into population-weighted estimates.

    Each window carries its phase and the population share it represents
    (:class:`~repro.sampling.phases.PhaseWindow`); phases whose windows
    all fell past program end are dropped and the surviving phases'
    weights renormalized, so the estimator stays a convex combination.
    """
    if not windows:
        raise ValueError("no measurement windows to aggregate")
    usable = [w for w in windows if w.blocks > 0]
    if not usable:
        raise ValueError("every measurement window is empty")

    present: Dict[int, List[WindowSample]] = {}
    for w in usable:
        present.setdefault(w.phase, []).append(w)
    raw = {c: sum(w.weight for w in group)
           for c, group in present.items()}
    total_w = sum(raw.values())
    weights = {c: wt / total_w for c, wt in raw.items()}

    cpb_by_phase = {c: [w.cycles / w.blocks for w in group]
                    for c, group in present.items()}
    cpb_mean, cpb_var, df = _weighted_stats(cpb_by_phase, weights)
    cycles_est = cpb_mean * blocks_total
    cycles_ci = t95(df) * math.sqrt(cpb_var) * blocks_total \
        if math.isfinite(cpb_var) else float("inf")

    ipc_est = insts_total / cycles_est if cycles_est else 0.0
    ipc_ci = (insts_total / cycles_est ** 2) * cycles_ci \
        if cycles_est and math.isfinite(cycles_ci) else float("inf")

    rates: Dict[str, float] = {}
    rates_ci: Dict[str, float] = {}
    for name in RATE_FIELDS:
        by_phase = {c: [w.counters.get(name, 0) / w.blocks for w in group]
                    for c, group in present.items()}
        mean, var, rdf = _weighted_stats(by_phase, weights)
        rates[name] = mean * blocks_total
        rates_ci[name] = t95(rdf) * math.sqrt(var) * blocks_total \
            if math.isfinite(var) else float("inf")

    return SampledProcStats(
        blocks_total=blocks_total,
        insts_total=insts_total,
        reads_total=reads_total,
        windows=len(usable),
        measured_blocks=sum(w.blocks for w in usable),
        measured_cycles=sum(w.cycles for w in usable),
        measured_insts=sum(w.insts for w in usable),
        cycles_est=cycles_est,
        cycles_ci=cycles_ci,
        ipc_est=ipc_est,
        ipc_ci=ipc_ci,
        lsq_peak=max(w.lsq_peak for w in usable),
        rates=rates,
        rates_ci=rates_ci,
        window_detail=[w.to_dict() for w in usable],
        phases=k,
        phase_weights=list(phase_weights),
    )
