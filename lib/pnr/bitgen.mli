(** Bitstream generation: serialize a placed-and-routed design into
    configuration frames for a region. Partial bitstreams (one page)
    are proportionally smaller than full-region ones — the property
    that makes DFX loading fast (§2.3). *)

open Pld_fabric
module N := Pld_netlist.Netlist

type t = {
  target : Floorplan.rect;
  frames : bytes;
  crc : string;
  seconds : float;
}

val generate :
  region:Floorplan.rect -> placement:(int * int) array -> routes:Route.route list -> N.t -> t

val size_bytes : t -> int
