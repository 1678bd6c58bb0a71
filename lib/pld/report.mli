(** Human-readable compile/run reporting in the shape of the paper's
    tables. *)

val compile_row : Build.app -> string list
(** [benchmark; hls; syn; p&r; bitgen; total] seconds — one Tab. 2
    cell group. For -O1 the total is the parallel (cluster) wall time
    of the slowest operator; phases are summed over recompiled
    operators. *)

val compile_summary : Build.app -> string
(** One line with recompile/hit counts, the modeled serial and cluster
    (LPT) times, and the measured executor wall-clock. *)

val cache_summary : Build.report -> string
(** Per-kind [hits/misses] counts of one build, from its trace. *)

val trace_lines : Pld_telemetry.Telemetry.t -> string list
(** The sink's spans and instants as human-readable lines — what
    [pldc --trace] prints. Wall-clock entries (engine jobs, loader
    recovery steps, cosim firings) interleave in timestamp order;
    modeled-clock entries (backend-tool phases, overlay replays)
    follow in a separate section on their own clock. *)

val area_row : Build.app -> string list
(** [LUT; BRAM18; DSP; pages] — one Tab. 4 cell group. *)

val build_recovery_lines : Build.report -> string list
(** Quarantined jobs and softcore fallbacks of one build — empty when
    the build was healthy. *)

val recovery_lines : Loader.deploy_result -> string list
(** The deploy's recovery section: one header line plus one line per
    retry / spare relink / softcore fallback, flagged DEGRADED when a
    hardware operator runs on a softcore. *)

val degraded_perf_lines : nominal:Runner.result -> actual:Runner.result -> string list
(** Honest degraded-mode reporting: actual vs. fault-free ms/input and
    the replayed NoC's drop/corrupt/retransmit counters. *)
