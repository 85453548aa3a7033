"""Configuration of the TRIPS prototype core (Sections 3 and 5).

Every parameter is taken from the paper where it gives one; the handful it
does not (e.g. OPN router buffer depth) are noted inline.  A single
:class:`TripsConfig` instance parameterizes the whole detailed model, which
is how the ablation benchmarks vary one knob at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class PredictorConfig:
    """Next-block predictor budgets (Section 3.1), in bits."""

    local_bits: int = 9 * 1024        # local exit predictor
    global_bits: int = 16 * 1024      # gshare exit predictor
    choice_bits: int = 12 * 1024      # tournament chooser
    btb_bits: int = 20 * 1024         # branch target buffer
    ctb_bits: int = 6 * 1024          # call target buffer
    btype_bits: int = 12 * 1024       # branch type predictor
    exit_history_len: int = 10        # 3-bit exits folded into history
    #: "static" disables all dynamic structures (ablation), "gshare"
    #: disables the tournament, "tournament" is the prototype.
    kind: str = "tournament"


@dataclass
class TripsConfig:
    """The prototype processor core.

    The tile counts are not parameters: the model is the prototype's
    fixed layout of Figure 2 (1 GT, 4 RTs, 4 DTs, 5 ITs, a 4x4 ET array).
    """

    # --- block window ----------------------------------------------------
    max_blocks_in_flight: int = 8     # 1 non-speculative + 7 speculative
    speculative_blocks: int = 7       # ablation: 0 disables speculation

    # --- fetch (Section 4.1) ---------------------------------------------
    predict_cycles: int = 3
    dispatch_commands: int = 8        # pipelined GDN indices per block

    # --- execution ---------------------------------------------------------
    #: operands one link can carry per cycle (the paper's future-work
    #: extension is "more operand network bandwidth": ablation knob).
    opn_links_per_hop: int = 1
    opn_router_depth: int = 2         # input FIFO depth (not in the paper)

    # --- caches -------------------------------------------------------------
    l1i_bank_kb: int = 16             # per IT, 2-way
    l1d_bank_kb: int = 8              # per DT, 2-way
    l1d_assoc: int = 2
    l1i_assoc: int = 2
    line_bytes: int = 64
    l1_hit_cycles: int = 2            # DT cache access

    # --- LSQ / dependence prediction (Section 3.5) -------------------------
    lsq_entries: int = 256            # replicated at every DT
    dep_predictor_bits: int = 1024
    dep_clear_interval_blocks: int = 10_000
    dep_predictor_enabled: bool = True

    # --- secondary memory ----------------------------------------------------
    perfect_l2: bool = True           # the paper's evaluation configuration
    l2_hit_cycles: int = 12           # when modelling the NUCA array
    dram_cycles: int = 80

    # --- predictor -------------------------------------------------------------
    predictor: PredictorConfig = field(default_factory=PredictorConfig)

    # --- simulation --------------------------------------------------------------
    max_cycles: int = 30_000_000
    #: fast-path cycle engine: routers, tiles and the OCN are visited only
    #: when they hold work; a conflict-free OPN/OCN packet is delivered at
    #: its computed arrival cycle via per-link reservations instead of
    #: hop by hop (``uarch/mesh.py``); and :meth:`TripsProcessor.run`
    #: jumps straight to the earliest per-component wakeup (timed event,
    #: express arrival, deferred load, GT, bank/DRAM) instead of stepping
    #: no-op cycles.  Cycle-for-cycle identical stats for a run to HALT
    #: (tests/uarch/test_fast_path.py; a ``run(until_blocks=...)`` stop
    #: may land a cycle apart, see EXPERIMENTS.md); False is the
    #: full-scan reference engine that steps every component every cycle.
    fast_path: bool = True

    def with_overrides(self, **kwargs) -> "TripsConfig":
        """A copy with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)

    @property
    def window_size(self) -> int:
        """In-flight instruction window (1,024 in the prototype)."""
        return self.max_blocks_in_flight * 128


#: the prototype's shipping configuration.
PROTOTYPE = TripsConfig()
