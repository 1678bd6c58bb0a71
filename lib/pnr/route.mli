(** PathFinder negotiated-congestion router over the fabric's routing
    resource graph. *)

open Pld_fabric
module N := Pld_netlist.Netlist

type route = { net_id : int; edges : int list (** edge indices into the RRG *) }

type result = {
  rrg : Rrg.t;
  routes : route array;
  iterations : int;  (** PathFinder rounds run, at most 14 *)
  overused_edges : int;  (** 0 = fully legal routing *)
  total_wire : int;
  seconds : float;
  net_delay_ns : float array;  (** per net, driver→farthest sink *)
  nets_routed : int;
      (** [route_net] invocations — on an incremental run, the rip-up
          set's size plus congestion-driven reroutes *)
  history : float array;
      (** per-edge negotiated-congestion history at exit — the state an
          incremental rerun resumes from *)
}

type reuse = {
  prev : result;  (** prior routing of the same device/region *)
  keep : (int * int) list;
      (** [(old nid, new nid)] whose routes carry over verbatim: the
          caller guarantees both endpoints sit at unchanged tiles *)
}

val run :
  ?reuse:reuse ->
  device:Device.t ->
  region:Floorplan.rect ->
  placement:(int * int) array ->
  N.t ->
  result
(** Routes every multi-tile net; same-tile nets cost zero wire.

    With [reuse], the previous RRG is reused (no rebuild), kept nets'
    routes and delays are loaded as-is with the previous history costs,
    and the first PathFinder pass routes only the remaining dirty nets
    — incremental rip-up-only rerouting. Preserved routes are ripped up
    in later passes only if congestion reaches them. *)
