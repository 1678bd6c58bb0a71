(** Unified cross-layer telemetry: spans, a metrics registry and
    Perfetto/JSON exporters.

    One process-wide, domain-safe sink ({!default}) collects what used
    to be fragmented over executor trace lines, [Bft.stats],
    [Interp.counters] and the recovery report:

    - {b spans} — named intervals with a category (the layer: engine,
      flow, noc, cosim, loader, platform, build), a track (Perfetto
      tid; by default the current domain), key/value attributes, and
      one of two clock domains;
    - {b instants} — zero-duration marks (cache hits, retries,
      recovery steps);
    - {b metrics} — counters, gauges and histograms in an
      insertion-ordered registry.

    {b Clock domains.} [Wall] spans carry measured microseconds since
    the sink's epoch — what the executor, loader and cosim scheduler
    actually spent. [Modeled] spans carry simulated backend-tool or
    overlay seconds (HLS/syn/p&r/bitgen phase breakdowns, NoC replay
    cycles) laid out sequentially on their own tracks; the two domains
    are never mixed on one timeline. The Chrome trace export maps each
    (category, clock) pair to a Perfetto process and each track to a
    thread, so a trace opens as one lane group per layer.

    All operations are safe to call from multiple domains (a single
    mutex per sink). Span storage is capped; past the cap spans are
    counted as dropped rather than recorded. {!reset} invalidates
    previously obtained metric handles — re-fetch them after a reset. *)

type clock = Wall | Modeled

type span = {
  name : string;
  cat : string;  (** layer: "engine", "noc", "cosim", "loader", ... *)
  track : int;  (** Perfetto tid within the (cat, clock) process *)
  clock : clock;
  start_us : float;  (** wall: us since the sink epoch; modeled: us on the track's own timeline *)
  dur_us : float option;  (** [None] marks an instant event *)
  attrs : (string * string) list;
}

type t

val create : unit -> t
val default : t
(** The process-wide sink every layer records into unless handed an
    explicit one. *)

val reset : t -> unit
(** Drop all spans, metrics and track names and restart the epoch.
    Metric handles from before the reset go stale (their increments
    are no longer visible to the sink). *)

val now_us : t -> float
(** Wall-clock microseconds since the sink's epoch. *)

(** {2 Spans} *)

val span :
  t ->
  ?cat:string ->
  ?track:int ->
  ?clock:clock ->
  ?attrs:(string * string) list ->
  name:string ->
  start_us:float ->
  dur_us:float ->
  unit ->
  unit
(** Record a completed span. [cat] defaults to ["misc"]; [track] to the
    calling domain's id; [clock] to [Wall]. *)

val instant : t -> ?cat:string -> ?track:int -> ?attrs:(string * string) list -> string -> unit
(** Record a zero-duration mark at [now_us]. *)

val with_span :
  t -> ?cat:string -> ?track:int -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a wall-clock span. {b Exception-safe}: if the
    thunk raises, the span is still closed (with an ["error"]
    attribute holding the exception text) before the exception
    propagates. Spans nest by time containment on a track, so nested
    [with_span] calls on one domain render as a flame graph. *)

val alloc_track : t -> ?clock:clock -> cat:string -> string -> int
(** A fresh track id (unique within the sink across all categories),
    registered under the given display name — exported as a Perfetto
    [thread_name]. *)

(** {2 Modeled-clock tracks}

    A modeled track is a private timeline in simulated seconds: each
    {!modeled_span} is placed at the track's cursor and advances it,
    so consecutive calls tile left to right. *)

type modeled_track

val modeled_track : t -> cat:string -> name:string -> modeled_track
val modeled_span : t -> modeled_track -> ?attrs:(string * string) list -> string -> float -> unit
(** [modeled_span t mt name seconds] — duration is in modeled seconds. *)

val spans : t -> span list
(** All recorded spans and instants in recording order (a span records
    when it {e closes}; sort by [start_us] for a timeline view). *)

val dropped_spans : t -> int
(** Spans discarded after the storage cap was reached. *)

(** {2 Metrics registry} *)

type counter
type gauge
type histogram

val counter : t -> string -> counter
(** Fetch-or-create. Always re-fetch after {!reset}. *)

val incr : ?by:int -> counter -> unit
val counter_value : t -> string -> int
(** 0 for an unknown name. *)

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
(** High-water-mark update: keeps the larger of the current and given
    values (first call just sets). *)

val gauge_value : t -> string -> float option

val histogram : t -> ?buckets:float list -> string -> histogram
(** Fetch-or-create with the given upper bucket edges (strictly
    ascending; an implicit +inf bucket is appended). [buckets]
    defaults to exponential edges 1e-6 .. 1e4, for duration-like
    samples in seconds, and is ignored when the histogram already
    exists. *)

val observe : histogram -> float -> unit

val bucket_counts : t -> string -> (float * int) list
(** [(upper_edge, count)] per bucket, the +inf bucket as
    [Float.infinity]. Empty for an unknown name. *)

val samples : t -> string -> float list
(** Raw observations in insertion order (capped; used by the adaptive
    renderers). *)

(** {2 Export} *)

val to_chrome_json : t -> Json.t
(** Chrome trace-event JSON ([{"traceEvents": [...]}]) that loads in
    Perfetto: ["X"] events for spans, ["i"] for instants, ["M"]
    metadata naming each (category, clock) process and each track. *)

val to_metrics_json : t -> Json.t
(** Flat metrics document: counters, gauges, histograms (bucket
    counts, sum/count/min/max) and span bookkeeping. *)

val write_chrome : t -> file:string -> unit
val write_metrics : t -> file:string -> unit

(** {2 Reading a trace back} *)

exception Malformed_trace of string
(** The document is valid JSON but not a trace {!to_chrome_json}
    wrote: no [traceEvents] list, an event without a name, a phase
    other than ["X"], ["i"] or ["M"]. *)

val of_chrome_json : Json.t -> span list
(** Invert {!to_chrome_json}, so an analysis runs identically on a live
    sink and on a trace file: ["X"] events become spans, ["i"] events
    instants ([dur_us = None]), and ["M"] metadata gives each pid its
    (category, clock). Events in an unknown pid decode with category
    ["?"] and a wall clock rather than being dropped. Raises
    {!Malformed_trace}. *)

val read_chrome : file:string -> span list
(** Read and decode a trace file written by {!write_chrome}. Raises
    [Sys_error] on I/O failure, [Json.Parse_error] on bad JSON and
    {!Malformed_trace} on a non-trace. *)

val to_prometheus : t -> string
(** Prometheus text exposition (version 0.0.4) of the metrics
    registry: every name is sanitized and prefixed [pld_]; every
    metric — counter, gauge (set or not) and histogram — gets a
    [# HELP] line (carrying the original dotted registry name, escaped)
    and a [# TYPE] line; counters and set gauges one sample each,
    histograms as cumulative [_bucket{le="..."}] series plus
    [_sum]/[_count]; span bookkeeping as
    [pld_spans_recorded]/[pld_spans_dropped]. Scraped live from the
    daemon via the [Metrics] admin verb. *)

val prometheus_escape_label : string -> string
(** Escape a label value for the exposition format: backslash,
    double-quote and newline get a backslash escape. *)

(** {2 Human rendering} *)

val render_section : string -> string
(** The bench harness's ["\n===== title =====\n"] banner. *)

val render_metrics : t -> string list
(** One aligned line per registered metric, histograms with an
    inline distribution summary. *)

val render_metric : t -> string -> string option
(** The {!render_metrics} line for a single registered metric, or
    [None] for an unknown name — lets a harness print one metric
    inline without dumping the whole registry. *)

val render_summary : t -> string -> string
(** min/median/mean/max of a histogram's samples — the registry's
    replacement for [Stats.summary] dumps. *)

val render_histogram : ?bins:int -> t -> string -> string list
(** Adaptive-bin bar rendering of a histogram's raw samples (the
    registry's replacement for ad-hoc [Stats.histogram] printing). *)
