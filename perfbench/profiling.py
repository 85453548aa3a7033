"""Per-layer figures for the traced run of perfbench/run.py.

Two sources, both read from outside the simulator:

* a cProfile of the timed repetitions, folded into layers by module
  (``*.self_s``) or by public entry function (``*.s`` spans), as listed in
  perfbench/layers.json;
* the public counters of every :class:`TripsProcessor` and
  :class:`FastForwarder` created while tracing, read when each
  repetition (or each Table-3 job) ends.
"""

from __future__ import annotations

import json
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"

#: cProfile's key for builtins and C functions
_BUILTIN_FILE = "~"


def load_layers() -> List[dict]:
    return json.loads(LAYERS_FILE.read_text())["layers"]


def _module_of(filename: str, src_root: Path) -> str:
    """Dotted module name of a profiled file, or the raw filename."""
    if filename.startswith("<"):
        return filename
    try:
        rel = Path(filename).resolve().relative_to(src_root)
    except ValueError:
        return filename
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class ProfileView:
    """A cProfile result folded into layers."""

    def __init__(self, profile, src_root: Path):
        self.raw = pstats.Stats(profile).stats
        self.module = {key: _module_of(key[0], src_root) for key in self.raw}

    def _group_of(self, module: str, groups: Dict[str, Tuple[str, ...]]):
        for layer, prefixes in groups.items():
            if module.startswith(prefixes):
                return layer
        return None

    def self_seconds(self, groups: Dict[str, Tuple[str, ...]]
                     ) -> Dict[str, float]:
        """Self time per layer.  A builtin's time is charged to the layers
        of its direct callers, in proportion to what each caller spent in
        it; mesh time reached straight from ``repro.mem.sysmem`` is the OCN
        and moves from ``opn`` to ``sysmem``."""
        totals: Dict[str, float] = defaultdict(float)
        for key, (_, _, tt, _, callers) in self.raw.items():
            layer = self._group_of(self.module[key], groups)
            if layer is not None:
                totals[layer] += tt
            elif key[0] == _BUILTIN_FILE:
                for caller, edge in callers.items():
                    owner = self._group_of(self.module.get(caller, ""),
                                           groups)
                    if owner is not None:
                        totals[owner] += edge[2]
        ocn = sum(edge[3]
                  for key, (_, _, _, _, callers) in self.raw.items()
                  if self.module[key] == "repro.uarch.mesh"
                  for caller, edge in callers.items()
                  if self.module.get(caller, "").startswith("repro.mem."))
        ocn = min(ocn, totals["opn"])
        totals["opn"] -= ocn
        totals["sysmem"] += ocn
        return totals

    def _entries(self, spec: str):
        module, _, name = spec.partition(":")
        return [value for key, value in self.raw.items()
                if self.module[key] == module and key[2] == name]

    def calls(self, spec: str, from_module: str = "") -> Tuple[int, float]:
        """Call count and cumulative seconds of one public function (a
        span), optionally only of its calls from one module."""
        calls = seconds = 0
        for _, nc, _, ct, callers in self._entries(spec):
            if not from_module:
                calls += nc
                seconds += ct
                continue
            for caller, edge in callers.items():
                if self.module.get(caller) == from_module:
                    calls += edge[0]
                    seconds += edge[3]
        return calls, seconds


class Probe:
    """Collects every processor and fast-forwarder built while active and
    folds their public counters into ``counts`` on :meth:`harvest`."""

    def __init__(self):
        from repro.sampling.ffwd import FastForwarder
        from repro.uarch.proc import TripsProcessor
        self._classes = (TripsProcessor, FastForwarder)
        self._originals = {}
        self.procs: list = []
        self.ffs: list = []
        self.counts: Dict[str, float] = defaultdict(float)

    def __enter__(self) -> "Probe":
        for cls, sink in zip(self._classes, (self.procs, self.ffs)):
            original = cls.__init__
            self._originals[cls] = original

            def init(obj, *args, _original=original, _sink=sink, **kwargs):
                _original(obj, *args, **kwargs)
                # a processor resumed from a checkpoint is a sampled window
                _sink.append((obj, kwargs.get("checkpoint") is not None))
            cls.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in self._originals.items():
            cls.__init__ = original
        self._originals.clear()
        self.harvest()

    def harvest(self) -> None:
        c = self.counts
        for proc, window in self.procs:
            st = proc.stats
            if window:
                c["windows.detail_blocks"] += st.blocks_committed
            c["proc.cycles"] += proc.cycle
            c["proc.blocks_fetched"] += st.blocks_fetched
            c["proc.blocks_flushed"] += st.blocks_flushed
            c["proc.blocks_committed"] += st.blocks_committed
            c["tiles.et_issued"] += sum(et.issued for et in proc.ets)
            c["tiles.rt_forwards"] += sum(rt.forwards for rt in proc.rts)
            c["tiles.rt_file_reads"] += sum(rt.file_reads for rt in proc.rts)
            c["tiles.dt_loads"] += sum(dt.loads for dt in proc.dts)
            c["tiles.dt_stores"] += sum(dt.stores for dt in proc.dts)
            c["tiles.dt_deferred"] += sum(dt.deferred_count
                                          for dt in proc.dts)
            opn = proc.opn.stats
            c["opn.injected"] += opn.injected
            c["opn.hops"] += opn.total_hops
            c["opn.queue_cycles"] += opn.total_queue_cycles
            c["opn.inject_stalls"] += opn.inject_stalls
            if proc.sysmem is not None:
                c["sysmem.requests"] += proc.sysmem.stats["requests"]
                c["sysmem.dram_accesses"] += \
                    proc.sysmem.stats["dram_accesses"]
                ocn = proc.sysmem.ocn.stats
                c["ocn.injected"] += ocn.injected
                c["ocn.hops"] += ocn.total_hops
                c["ocn.queue_cycles"] += ocn.total_queue_cycles
            c["lsq.peak"] = max(c["lsq.peak"], max(
                dt.lsq.peak_occupancy for dt in proc.dts))
            c["lsq.dep_violations"] += st.flushes_violation
            pred = proc.predictor
            c["predictor.predictions"] += pred.predictions
            c["predictor.exit_mispredicts"] += pred.exit_mispredicts
            c["predictor.target_mispredicts"] += pred.target_mispredicts
            c["l1d.hits"] += sum(dt.cache.hits for dt in proc.dts)
            c["l1d.misses"] += sum(dt.cache.misses for dt in proc.dts)
            c["l1i.hits"] += sum(bank.hits for bank in proc.icache)
            c["l1i.misses"] += sum(bank.misses for bank in proc.icache)
        for ff, _ in self.ffs:
            c["ffwd.blocks"] += ff.stats.blocks
            c["ffwd.fallback_blocks"] += ff.fallback_blocks
        self.procs.clear()
        self.ffs.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(view: ProfileView, counts: Dict[str, float],
                  reps: int) -> Dict[str, float]:
    """Every per-layer metric, per repetition.  Sampler
    figures that come from the repetitions' results rather than from the
    profile (``phases.k``, ``windows.count``, ``windows.coverage``,
    ``sampled_*``, ``baseline.insts``) are filled in by the caller."""
    layers = load_layers()
    groups = {layer["layer"]: tuple(layer["modules"])
              for layer in layers if layer.get("modules")}
    self_s = view.self_seconds(groups)
    per = 1.0 / reps
    c = counts
    out: Dict[str, float] = {}
    for layer in layers:
        time_metric = layer["metrics"][0]
        if layer.get("modules"):
            out[time_metric] = self_s[layer["layer"]] * per
        elif layer.get("spans"):
            spans = [view.calls(spec) for spec in layer["spans"]]
            calls = sum(n for n, _ in spans)
            out[time_metric] = sum(t for _, t in spans) * per
            if f"{layer['layer']}.calls" in layer["metrics"]:
                out[f"{layer['layer']}.calls"] = calls * per
    steps = view.calls("repro.uarch.proc:step")[0]
    out["proc.steps"] = steps * per
    out["proc.skipped_cycles"] = (c["proc.cycles"] - steps) * per
    out["proc.commit_ratio"] = _ratio(c["proc.blocks_committed"],
                                      c["proc.blocks_fetched"])
    out["opn.step_calls"] = view.calls("repro.uarch.mesh:step",
                                       from_module="repro.uarch.proc")[0] * per
    for name in ("proc.blocks_fetched", "proc.blocks_flushed",
                 "tiles.et_issued", "tiles.rt_forwards",
                 "tiles.rt_file_reads", "tiles.dt_loads", "tiles.dt_stores",
                 "tiles.dt_deferred", "opn.injected", "opn.hops",
                 "opn.queue_cycles", "opn.inject_stalls", "sysmem.requests",
                 "sysmem.dram_accesses", "ocn.injected", "ocn.hops",
                 "ocn.queue_cycles", "lsq.dep_violations",
                 "predictor.predictions", "predictor.exit_mispredicts",
                 "predictor.target_mispredicts", "ffwd.blocks",
                 "ffwd.fallback_blocks"):
        out[name] = c[name] * per
    out["lsq.peak"] = c["lsq.peak"]
    out["predictor.accuracy"] = 1.0 - _ratio(
        c["predictor.target_mispredicts"], c["predictor.predictions"])
    out["caches.l1d_hit_ratio"] = _ratio(c["l1d.hits"],
                                         c["l1d.hits"] + c["l1d.misses"])
    out["caches.l1i_hit_ratio"] = _ratio(c["l1i.hits"],
                                         c["l1i.hits"] + c["l1i.misses"])
    out["ffwd.kblocks_per_s"] = _ratio(c["ffwd.blocks"],
                                       self_s["ffwd"]) / 1e3
    out["checkpoint.taken"] = view.calls(
        "repro.sampling.checkpoint:take_checkpoint")[0] * per
    out["ffwd.restores"] = view.calls("repro.sampling.ffwd:restore_arch")[0] \
        * per
    out["windows.engine_s"] = view.calls(
        "repro.uarch.proc:run", from_module="repro.sampling.sampler")[1] * per
    out["windows.detail_blocks"] = c["windows.detail_blocks"] * per
    return out
