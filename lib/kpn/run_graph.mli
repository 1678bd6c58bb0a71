(** Functional execution of a whole application graph on the KPN
    runtime: the behavioural reference every compiled flow (-O0/-O1/
    -O3) must match, the source of the token/work profiles the
    performance models consume, and the one place a [Graph.t] becomes
    a process network — every flow runs on it, softcore pages
    included. *)

open Pld_ir

type result = {
  outputs : (string * Value.t list) list;  (** per graph-output channel *)
  channel_stats : Network.channel_stats list;
  op_counters : (string * Interp.counters) list;
      (** per instance; zero for an instance with a supplied body *)
  printed : (string * string) list;  (** (instance, text) from -O0 printf *)
}

type io = {
  net : Network.t;  (** for {!Network.note_progress} *)
  port : string -> Network.channel;  (** the channel bound to one of the instance's ports *)
  print : string -> unit;  (** append a line to [printed] under the instance's name *)
}
(** What a supplied process body sees of the network. *)

val run :
  ?fuel:int ->
  ?rounds:int ->
  ?processor:bool ->
  ?order:string list ->
  ?pmu:Pld_telemetry.Pmu.t ->
  ?rates:(string * int) list ->
  ?body:(Graph.instance -> io -> (unit -> unit) option) ->
  ?watchdog:(exn -> (Network.channel_stats * int) list -> exn) ->
  Graph.t ->
  inputs:(string * Value.t list) list ->
  result
(** [run g ~inputs] validates [g], loads each input channel, runs
    every operator body [rounds] times (default 1 — one frame), and
    drains the outputs. [processor] enables [Printf] statements.
    [order] registers processes (and hence schedules the round-robin)
    in the given instance order — by the Kahn property the outputs must
    not depend on it, which the property-based oracle checks. [pmu]
    receives windowed firing/stall/occupancy series (see
    {!Network.create}).

    [rates] times the run: it gives instances their modeled
    cycles-per-firing; relative to the fastest rated instance, slower
    ones yield proportionally more scheduler rounds per token, and
    inputs stream through bounded host-DMA processes instead of being
    preloaded, so the stall counters reflect the modeled service rates
    and back-pressure against the host (outputs unchanged, by the same
    Kahn property). Without [rates] the run is untimed.

    [body i io], called once per instance at registration, may supply
    that instance's process (a softcore, say); [None] (the default for
    every instance) runs the reference evaluator, [rounds] times. The
    operator is compiled ({!Pld_ir.Interp.compile}) and its ports
    resolved to channels once, at registration, and the compiled form
    lives only as long as this run.

    Raises {!Validate.Invalid}, or {!Network.Deadlock} /
    {!Network.Out_of_fuel} mapped through [watchdog] (default: the
    identity), which also gets every channel's stats with its tokens
    still in flight. *)

val run_words :
  ?fuel:int -> ?rounds:int -> Graph.t -> inputs:(string * int list) list -> (string * int list) list
(** Convenience wrapper: 32-bit integer tokens in and out. *)
