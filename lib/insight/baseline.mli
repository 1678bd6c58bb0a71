(** Versioned behaviour baselines with an exact comparison.

    A baseline snapshots the deterministic outputs of a seeded suite
    run — P&R counters, cache hits and recompiles, modeled overhead,
    Fmax, frame cycles, ms/input, and the service, chaos and
    incremental counters — so a later run can be judged against it.
    Every metric is compared at a relative tolerance of 1e-6: any drift
    beyond float formatting is a behaviour change. No metric is a
    measured time; measured seconds are judged by [perf check].

    A regression is a metric {e worse} than its baseline beyond the
    band (fewer cache hits, lower Fmax, more recompiles); an
    improvement is the same distance in the good direction and is
    reported but never fails a check. *)

module Json = Pld_telemetry.Json

type entry = { bench : string; level : string; exact : (string * float) list }

type snapshot = {
  version : int;  (** format version, {!current_version} *)
  suite : string;
  created : string;  (** ISO-8601 UTC, informational only *)
  entries : entry list;
}

val current_version : int

type status = Ok | Regression | Improvement | Missing | New
(** [Missing]: in the baseline but not the current run; [New]: the
    reverse. Both are reported, neither fails a check. *)

val status_name : status -> string
(** The label the renderers print (["ok"], ["REGRESSION"], ...). *)

type finding = {
  f_bench : string;
  f_level : string;
  f_metric : string;
  f_base : float;
  f_cur : float;
  f_band : float;  (** allowed absolute deviation *)
  f_status : status;
}

type verdict = {
  findings : finding list;  (** every compared metric, snapshot order *)
  regressions : finding list;
  improvements : finding list;
  ok : bool;  (** no regressions *)
}

val higher_is_better : string -> bool
(** Direction of goodness for a metric name ([fmax_mhz], [cache_hits],
    [svc_completed], [inc_delta_hits], [inc_cells_kept]); everything
    else is lower-is-better. *)

val compare_snapshots : base:snapshot -> snapshot -> verdict
(** Compare a current snapshot against its baseline. *)

val to_json : snapshot -> Json.t
val of_json : Json.t -> snapshot
(** Raises [Failure] on a malformed or version-incompatible document. *)

val save : file:string -> snapshot -> unit
(** Pretty-printed JSON (the file is committed and diffed). *)

val load : file:string -> snapshot

val render_verdict : verdict -> string
(** The human diff table: every finding with baseline, current, delta
    and band columns, then a one-line summary. *)

val verdict_json : verdict -> Json.t
(** Machine-readable verdict (REGRESSION.json): per-finding records
    plus the regression/improvement counts and overall [ok]. *)
