(** Back-pressure attribution over a fabric profile: walk the channel
    graph from every stalled operator to the operator actually setting
    the pace, and rank the culprits.

    The KPN runtime records two kinds of stalls per channel: a consumer
    blocked on an empty channel (starved — the slowness is {e upstream})
    and a producer blocked on a full channel (back-pressured — the
    slowness is {e downstream}). Neither stall names the culprit: a
    starved operator three hops behind a slow filter stalls on its
    immediate input, not on the filter. The attribution pass follows
    each stalled operator's dominant stall direction hop by hop —
    upstream through the most-starved input, downstream through the
    most-back-pressured output — until it reaches an operator that is
    not itself predominantly stalled in the same direction. That
    terminal operator is the rate limiter, and it is charged with every
    stall event observed along the walk. Host boundaries terminate
    walks too: a pipeline starved by its input DMA is the host's fault,
    not any operator's. *)

module P = Pld_core.Fabric_profile

type finding = {
  bk_op : string;  (** the rate-limiting operator (or host boundary) *)
  bk_kind : string;  (** ["hw"], ["softcore"], ["mono"], or ["host"] *)
  bk_attributed : int;  (** stall events charged to it *)
  bk_fraction : float;  (** share of all observed stall events *)
  bk_victims : (string * int) list;
      (** stalled operators whose events were charged here, with their
          event counts, largest first *)
}

type report = {
  bk_graph : string;
  bk_level : string;
  bk_total_stalls : int;  (** all stall events in the profile *)
  bk_findings : finding list;  (** ranked, most-attributed first *)
  bk_perf_bottleneck : string;  (** the perf model's verdict, for cross-checking *)
  bk_agrees : bool;
      (** the top finding names the perf model's bottleneck operator
          (vacuously true when there are no stalls to attribute) *)
}

val attribute : P.t -> report
(** Pure function of the profile; safe on deserialized profiles. *)

val rate_limiter : report -> (string * float) option
(** The top-ranked operator and its attributed stall fraction; [None]
    when the run had no stalls. *)

val render : report -> string list
(** Ranked human-readable bottleneck report, one finding per line
    group: culprit, attributed share, and the walk's victims. *)

val profile_doc : P.t -> Pld_telemetry.Json.t
(** The full profile document: {!Pld_core.Fabric_profile.to_json}
    plus an ["attribution"] field holding this pass's report. [pldd]
    persists it and [pldc profile --json] prints it, so both export
    paths validate identically. *)
