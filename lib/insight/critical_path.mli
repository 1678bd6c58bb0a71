(** Critical-path extraction: recover the executor's job DAG from its
    spans and report the measured longest path against the analytic
    cluster model ({!Pld_engine.Makespan.lpt}).

    The executor stamps every span of one run with a ["run"] attribute
    and every job span with its ["deps"] — that is the whole contract;
    no build state is needed. Two predictions are reported next to the
    measurement: the longest {e dependency chain} in modeled tool
    seconds (the lower bound no cluster can beat) and the LPT makespan
    over [workers] machines (what [Build.report.parallel_seconds]
    promises). Divergence between modeled and measured time is broken
    out per job kind and per modeled flow phase (hls/syn/pnr/bitgen),
    because the two clocks disagree for different reasons in different
    phases. *)

module Telemetry = Pld_telemetry.Telemetry

type job = {
  id : string;
  kind : string;
  deps : string list;
  wall_s : float;  (** measured span duration *)
  model_s : float;  (** summed modeled phase spans of this job (0 for cache hits) *)
  phases : (string * float) list;  (** modeled seconds per phase *)
}

type report = {
  run : string;  (** the executor run id the spans were selected by *)
  workers : int;  (** cluster width used for the LPT prediction *)
  jobs : job list;  (** in span-recording order *)
  graph_wall_s : float;  (** the run's whole-graph span *)
  measured_s : float;
  measured_path : string list;  (** job ids, source to sink *)
  modeled_chain_s : float;
  modeled_chain : string list;  (** longest dependency chain by modeled seconds *)
  lpt_s : float;  (** LPT makespan of the modeled durations *)
  lpt_machine : string list;  (** jobs on the makespan-setting machine *)
  by_kind : (string * int * float * float) list;
      (** (kind, jobs, wall seconds, modeled seconds) *)
  phase_totals : (string * float) list;  (** modeled seconds per phase, whole run *)
}

val runs : Telemetry.span list -> string list
(** Run ids with a graph span in the list, oldest first. *)

val analyze : ?workers:int -> Telemetry.span list -> report option
(** Analyze the latest executor run (the one whose graph span was
    recorded last) out of a (possibly shared) span list; [None] when
    the list holds no graph span. [workers]
    (default 22) sizes the LPT cluster — [Build.compile]'s default, so
    [lpt_s] reproduces [report.parallel_seconds] exactly when given
    the spans of that compile. *)

val render : report -> string
(** Human rendering: headline measured-vs-modeled lines, the measured
    critical path, then per-kind and per-phase divergence tables. *)
