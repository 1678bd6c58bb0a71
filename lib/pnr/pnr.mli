(** The implementation backend: place, route, time, and generate a
    bitstream for a netlist targeting a device region.

    Two scopes mirror the paper's flows: a page rectangle with the
    abstract shell (the -O1 xclbin generator) or the whole L1 region
    (the -O3 / Vitis monolithic compile). On top of the from-scratch
    {!implement} sit two fast paths: {!implement_delta} reuses a prior
    result across a small netlist edit (placement reuse + rip-up-only
    rerouting), and {!implement_multi} races independent SA seeds on
    domains and keeps the best post-STA timing. *)

open Pld_fabric
module N := Pld_netlist.Netlist

type delta_stats = {
  cells_kept : int;  (** matched cells left at their previous tile *)
  cells_moved : int;  (** cells placed anew or relocated *)
  nets_preserved : int;  (** routes carried over verbatim *)
  nets_rerouted : int;  (** router invocations (rip-up set + congestion) *)
  fallback : string option;
      (** [None] when the delta path ran; [Some reason] when the compile
          fell back to scratch ([no-previous], [region-changed],
          [previous-not-routed], [large-edit], [refine-illegal],
          [route-congested]) *)
}

type result = {
  netlist : N.t;
  region : Floorplan.rect;
  placement : (int * int) array;
  place : Place.result;
  route : Route.result;
  timing : Sta.result;
  bitstream : Bitgen.t;
  place_seconds : float;
  route_seconds : float;
  sta_seconds : float;
  bitgen_seconds : float;
  seconds : float;  (** total wall-clock (place+route+sta+bitgen) *)
  delta : delta_stats option;
      (** present iff the result came from {!implement_delta} *)
}

val implement :
  ?seed:int ->
  ?clock_target_mhz:float ->
  ?pins:(string * (int * int)) list ->
  device:Device.t ->
  region:Floorplan.rect ->
  N.t ->
  result
(** Places ({!Place.run}), routes, times and generates the bitstream.
    [clock_target_mhz] (default 300) is both the placer's goal, whose
    anneal stops once the placement is legal and its pre-route
    estimate meets the target, and the cap {!Sta.analyze} puts on
    Fmax. Raises [Invalid_argument] when the netlist cannot fit the
    region (the caller decides whether to pick a bigger page). *)

val implement_delta :
  ?seed:int ->
  ?clock_target_mhz:float ->
  ?pins:(string * (int * int)) list ->
  ?previous:result ->
  device:Device.t ->
  region:Floorplan.rect ->
  N.t ->
  result
(** Incremental P&R: diff the netlist against [previous]'s, keep the
    placements of unchanged cells, refine only changed/affected cells
    at low temperature, and rip up and reroute only nets whose
    endpoints moved (plus congestion victims) — preserved routes keep
    their PathFinder history costs. Falls back to a from-scratch
    {!implement} (recording the reason in [delta]) when there is no
    usable previous result, the region changed, the edit touches more
    than half the cells, or the fast path fails to stay legal. The
    result is always legal-or-equal to what {!implement} would give. *)

val implement_multi :
  ?clock_target_mhz:float ->
  ?pins:(string * (int * int)) list ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  seeds:int list ->
  device:Device.t ->
  region:Floorplan.rect ->
  N.t ->
  result
(** Races one {!implement} per seed on OCaml 5 domains via the engine
    executor (one worker per seed) and keeps the winner: legal results
    first, then highest Fmax, then lowest critical path, then lowest
    seed — deterministic for a fixed seed list, and equal to that
    seed's own {!implement} except that [seconds] is the race's wall
    clock. Seeds must be distinct. Used for cold -O3/Vitis compiles
    where wall time would otherwise be one serial anneal. *)

val routed_ok : result -> bool
(** Placement legal (no overfill) and routing has no overused wires. *)

val report : result -> string
