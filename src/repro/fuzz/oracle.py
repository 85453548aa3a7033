"""The differential oracle: one program, every independent execution path.

Four check families, each exercising a different seam of the stack:

* ``arch`` — architectural outputs.  The TIR interpreter is golden; the
  block-atomic functional simulator (both compile levels), the SRISC/OOO
  baseline, and the cycle-level TRIPS simulator must match it bit for bit.
* ``engines`` — ProcStats equivalence.  The two cycle-engine tiers
  (the full-scan reference and the fast engine) must produce
  byte-identical statistics, optionally with telemetry enabled and/or the NUCA memory
  system (``perfect_l2=False``).
* ``asm`` — the assembler↔disassembler text round trip must reproduce
  the program's memory image exactly.
* ``ffwd`` — the sampling fast-forwarder's generated code.  Its cold
  chained region and its warm per-block functions must leave registers,
  memory and every ``FunctionalStats`` field (dict key order included)
  exactly as the token-pump interpreter does, and agree on BBVs.

Any exception raised by a stage (compile error, simulator deadlock) is
itself a divergence — those are precisely the crashes fuzzing exists to
find.  Results are plain dicts so shards can ship them through simlab.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from .gen import GenConfig, generate

#: check families in canonical order.
ALL_CHECKS = ("arch", "engines", "asm", "ffwd")

#: the two cycle-engine tiers under test (overrides on TripsConfig).
ENGINE_TIERS = {
    "full-scan": {"fast_path": False},
    "fast": {"fast_path": True},
}


@dataclass
class Divergence:
    """One disagreement between two execution paths."""

    program: str          # program name (``fuzz_<seed>`` or corpus name)
    stage: str            # e.g. "arch:hand", "engines:fast+nuca"
    detail: str           # human-readable description

    def to_dict(self) -> Dict[str, str]:
        return {"program": self.program, "stage": self.stage,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Divergence":
        return cls(program=data["program"], stage=data["stage"],
                   detail=data["detail"])


def _crash(program, stage, exc) -> Divergence:
    tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return Divergence(program, stage, f"raised: {tb}")


# ----------------------------------------------------------------------
# arch: architectural outputs vs the interpreter
# ----------------------------------------------------------------------
def _baseline_outputs(prog):
    from ..baseline.ooo import run_baseline
    from ..compiler.srisc import compile_srisc
    from ..tir.semantics import truncate_load

    sp = compile_srisc(prog)
    functional, _ = run_baseline(sp)
    parts = []
    for out in prog.outputs:
        if out in prog.arrays:
            arr = prog.arrays[out]
            base = sp.array_addrs[out]
            parts.append((out, tuple(
                truncate_load(
                    functional.memory.read(base + i * arr.elem_size,
                                           arr.elem_size),
                    arr.elem_size, arr.signed)
                for i in range(len(arr.data)))))
        else:
            parts.append((out, functional.regs[sp.var_regs[out]]))
    return tuple(parts)


def check_arch(prog) -> List[Divergence]:
    """Interpreter vs tcc/hand functional sims vs baseline vs cycle sim."""
    from ..compiler import compile_tir
    from ..tir import interpret
    from ..uarch import FunctionalSim
    from ..uarch.proc import TripsProcessor

    out: List[Divergence] = []
    golden = interpret(prog).output_signature(prog.outputs)

    compiled = {}
    for level in ("tcc", "hand"):
        stage = f"arch:{level}"
        try:
            compiled[level] = compile_tir(prog, level=level)
        except Exception as exc:
            out.append(_crash(prog.name, stage + ":compile", exc))
            continue
        try:
            sim = FunctionalSim(compiled[level].program)
            sim.run()
            got = compiled[level].extract_outputs(sim.regs, sim.memory)
        except Exception as exc:
            out.append(_crash(prog.name, stage, exc))
            continue
        if got != golden:
            out.append(Divergence(prog.name, stage,
                                  f"functional sim: {got!r} != {golden!r}"))

    try:
        base = _baseline_outputs(prog)
        if base != golden:
            out.append(Divergence(prog.name, "arch:baseline",
                                  f"baseline: {base!r} != {golden!r}"))
    except Exception as exc:
        out.append(_crash(prog.name, "arch:baseline", exc))

    if "hand" in compiled:
        try:
            proc = TripsProcessor(compiled["hand"].program)
            proc.run()
            got = compiled["hand"].extract_outputs(proc.regs, proc.memory)
            if got != golden:
                out.append(Divergence(prog.name, "arch:cycle",
                                      f"cycle sim: {got!r} != {golden!r}"))
        except Exception as exc:
            out.append(_crash(prog.name, "arch:cycle", exc))
    return out


# ----------------------------------------------------------------------
# engines: ProcStats across the two cycle-engine tiers
# ----------------------------------------------------------------------
def _stats_diff(a: dict, b: dict, prefix: str = "") -> List[str]:
    """Paths where two stats dicts disagree (bounded, deterministic)."""
    diffs = []
    for key in sorted(set(a) | set(b)):
        pa, pb = a.get(key), b.get(key)
        path = f"{prefix}{key}"
        if isinstance(pa, dict) and isinstance(pb, dict):
            diffs.extend(_stats_diff(pa, pb, path + "."))
        elif pa != pb:
            diffs.append(f"{path}: {pa!r} != {pb!r}")
        if len(diffs) >= 8:
            break
    return diffs[:8]


def check_engines(prog, nuca: bool = False,
                  telemetry: bool = False) -> List[Divergence]:
    """Both engine tiers must report identical ProcStats."""
    from ..compiler import compile_tir
    from ..uarch.config import TripsConfig
    from ..uarch.proc import TripsProcessor

    suffix = ("+nuca" if nuca else "") + ("+telemetry" if telemetry else "")
    out: List[Divergence] = []
    try:
        program = compile_tir(prog, level="hand").program
    except Exception as exc:
        return [_crash(prog.name, "engines:compile", exc)]

    stats: Dict[str, dict] = {}
    for tier, overrides in ENGINE_TIERS.items():
        stage = f"engines:{tier}{suffix}"
        config = TripsConfig(**overrides)
        if nuca:
            config = config.with_overrides(perfect_l2=False)
        try:
            proc = TripsProcessor(program, config=config,
                                  telemetry=telemetry or None)
            stats[tier] = proc.run().to_dict()
        except Exception as exc:
            out.append(_crash(prog.name, stage, exc))

    if "full-scan" in stats and "fast" in stats:
        diffs = _stats_diff(stats["full-scan"], stats["fast"])
        if diffs:
            out.append(Divergence(
                prog.name, f"engines:fast{suffix}",
                "stats diverge from full-scan: " + "; ".join(diffs)))
    return out


# ----------------------------------------------------------------------
# asm: text round trip
# ----------------------------------------------------------------------
def check_asm(prog) -> List[Divergence]:
    """disassemble → assemble must reproduce the exact memory image."""
    from ..asm import assemble, disassemble
    from ..compiler import compile_tir

    out: List[Divergence] = []
    for level in ("tcc", "hand"):
        stage = f"asm:{level}"
        try:
            original = compile_tir(prog, level=level).program
            again = assemble(disassemble(original))
        except Exception as exc:
            out.append(_crash(prog.name, stage, exc))
            continue
        img_a, img_b = original.memory_image(), again.memory_image()
        if img_a != img_b:
            bad = sorted(k for k in set(img_a) | set(img_b)
                         if img_a.get(k) != img_b.get(k))
            out.append(Divergence(
                prog.name, stage,
                f"memory image differs at {[hex(k) for k in bad[:4]]}"))
        elif again.entry != original.entry:
            out.append(Divergence(
                prog.name, stage,
                f"entry {again.entry:#x} != {original.entry:#x}"))
        elif again.initial_regs != original.initial_regs:
            out.append(Divergence(prog.name, stage, "initial_regs differ"))
    return out


# ----------------------------------------------------------------------
# ffwd: the fast-forwarder's compiled paths vs the interpreter
# ----------------------------------------------------------------------
#: BBV interval of the two fast-forward paths: short, so the region's
#: per-call flush runs many times even on a small program
_FFWD_BBV_INTERVAL = 7


def _functional_state(sim) -> dict:
    """Everything a functional run leaves, dicts as item lists so key
    order counts."""
    state = {"pc": sim.pc, "halted": sim.halted,
             "regs": {str(r): v for r, v in enumerate(sim.regs)},
             "pages": {hex(a): image.hex()
                       for a, image in sim.memory.touched_pages()}}
    for f in fields(sim.stats):
        value = getattr(sim.stats, f.name)
        state[f.name] = list(value.items()) if isinstance(value, dict) \
            else value
    return state


def check_ffwd(prog) -> List[Divergence]:
    """Cold region and warm per-block fast-forward vs the interpreter."""
    from ..compiler import compile_tir
    from ..sampling.ffwd import FastForwarder
    from ..uarch import FunctionalSim

    out: List[Divergence] = []
    for level in ("tcc", "hand"):
        stage = f"ffwd:{level}"
        try:
            program = compile_tir(prog, level=level).program
        except Exception as exc:
            out.append(_crash(prog.name, stage + ":compile", exc))
            continue
        runs = {"interp": lambda: FunctionalSim(program),
                "region": lambda: FastForwarder(
                    program, warm=False, bbv_interval=_FFWD_BBV_INTERVAL),
                "warm": lambda: FastForwarder(
                    program, warm=True, bbv_interval=_FFWD_BBV_INTERVAL)}
        sims = {}
        for path, make in runs.items():
            try:
                sim = make()
                sim.run()
            except Exception as exc:
                out.append(_crash(prog.name, f"{stage}:{path}", exc))
                continue
            sims[path] = sim
        if "interp" in sims:
            want = _functional_state(sims["interp"])
            for path in ("region", "warm"):
                if path not in sims:
                    continue
                diffs = _stats_diff(want, _functional_state(sims[path]))
                if diffs:
                    out.append(Divergence(
                        prog.name, f"{stage}:{path}",
                        "diverges from the interpreter: "
                        + "; ".join(diffs)))
        if "region" in sims and "warm" in sims:
            bbvs = [[list(vec.items()) for vec in sims[path].bbv_vectors()]
                    for path in ("region", "warm")]
            if bbvs[0] != bbvs[1]:
                out.append(Divergence(prog.name, f"{stage}:bbvs",
                                      "region BBVs differ from the warm "
                                      "path's"))
    return out


# ----------------------------------------------------------------------
# case / shard drivers
# ----------------------------------------------------------------------
def run_case(prog, checks=ALL_CHECKS, nuca: bool = False,
             telemetry: bool = False) -> List[Divergence]:
    """All requested checks on one program."""
    out: List[Divergence] = []
    if "arch" in checks:
        out.extend(check_arch(prog))
    if "engines" in checks:
        out.extend(check_engines(prog, nuca=nuca, telemetry=telemetry))
    if "asm" in checks:
        out.extend(check_asm(prog))
    if "ffwd" in checks:
        out.extend(check_ffwd(prog))
    return out


def run_shard(config: dict) -> dict:
    """Driver for one campaign shard; ``config`` is a plain-JSON dict.

    Keys: ``start`` (first seed), ``count``, optional ``gen`` (GenConfig
    fields), ``checks``, ``telemetry_every``, ``nuca_every`` (period, 0
    disables; the heavier engine variants are sampled, not run on every
    seed, to keep campaign throughput useful — the sampling period is
    part of the simlab cache key).
    """
    start = int(config["start"])
    count = int(config["count"])
    gen_config = GenConfig.from_dict(config.get("gen", {}))
    checks = tuple(config.get("checks", ALL_CHECKS))
    telemetry_every = int(config.get("telemetry_every", 4))
    nuca_every = int(config.get("nuca_every", 8))

    divergences: List[Divergence] = []
    for seed in range(start, start + count):
        prog = generate(seed, gen_config)
        telemetry = telemetry_every > 0 and seed % telemetry_every == 0
        nuca = nuca_every > 0 and seed % nuca_every == 0
        divergences.extend(run_case(prog, checks=checks, nuca=nuca,
                                    telemetry=telemetry))
    return {
        "start": start,
        "count": count,
        "divergences": [d.to_dict() for d in divergences],
    }
