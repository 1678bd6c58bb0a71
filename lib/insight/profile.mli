(** Span profiles: turn a flat span list back into the call structure
    it came from and aggregate where the time went.

    Spans nest by time containment on a track ([Telemetry.with_span]
    nesting, modeled phase tiling), so the forest is recovered per
    (category, clock, track) timeline by interval containment — no
    parent pointers are recorded and none are needed. Self time is a
    span's duration minus its direct children's; totals and selves are
    reported in seconds on the span's own clock (measured seconds for
    [Wall], simulated tool seconds for [Modeled] — never summed
    together). *)

module Telemetry = Pld_telemetry.Telemetry

type node = { span : Telemetry.span; children : node list }
(** One recovered call-tree node; [children] in start order. *)

val forest : Telemetry.span list -> node list
(** Containment forests of every (cat, clock, track) timeline,
    concatenated in first-appearance order; instants are ignored.
    Roots come back in start order within a timeline. *)

type row = {
  name : string;
  cat : string;
  clock : Telemetry.clock;
  count : int;  (** spans aggregated into this row *)
  total_s : float;  (** inclusive: sum of aggregated span durations *)
  self_s : float;  (** exclusive: total minus direct children *)
  max_s : float;  (** largest single span *)
}

val flat : Telemetry.span list -> row list
(** Flat profile: one row per distinct (name, cat, clock), in
    decreasing [self_s] order, ties broken by (name, cat, clock). A span nested under another occurrence
    of itself still counts its full duration once per occurrence, so
    [total_s] of a recursive name can exceed wall time — selves always
    sum to the timeline's span. *)

val render_hot : ?top:int -> row list -> string
(** The hot list: the [top] (default 15) rows of a flat profile as an
    aligned table with a self-time percentage column (of the summed
    self time on each row's clock). *)

val render_tree : ?min_s:float -> Telemetry.span list -> string
(** Top-down profile: the containment forest with siblings of the same
    name merged level by level, indented two spaces per depth, one
    "total self count name" line each, children in decreasing total
    order. Subtrees whose total is below [min_s] seconds (default
    0.0005) are pruned to keep the output readable. *)
