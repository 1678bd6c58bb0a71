(** Simulated-annealing placer (VPR-style).

    Cells are placed at tiles of the target region; tile capacities are
    enforced through an overfill penalty whose weight ramps as the
    temperature drops, so final placements are (near-)legal. Runtime
    grows super-linearly with cell count — the mechanism behind the
    paper's monolithic-vs-page compile-time gap. *)

open Pld_fabric
module N := Pld_netlist.Netlist

type result = {
  positions : (int * int) array;  (** cell id → tile (x, y) *)
  wirelength : int;  (** total half-perimeter wirelength *)
  overfill : float;  (** residual capacity violation (0 = legal) *)
  moves_evaluated : int;
  seconds : float;
}

val intrinsic_overfill : device:Device.t -> region:Floorplan.rect -> N.t -> float
(** The overfill no placement of this netlist in this region can go
    below: each cell's best-case weighted overflow on the friendliest
    tile kind present, summed. Oversized cells (a deep FIFO, a wide
    datapath) make this nonzero, so placement quality is the overfill
    {e beyond} this floor — the yardstick delta P&R uses to decide
    whether a refined placement is as good as the one it reused. *)

val run :
  ?seed:int ->
  ?pins:(string * (int * int)) list ->
  clock_target_mhz:float ->
  device:Device.t ->
  region:Floorplan.rect ->
  N.t ->
  result
(** [pins] fixes named cells (stream ports) at given tiles — the page
    leaf-interface location, or the shell/DMA edge for monolithic
    compiles. Each temperature tries [8 * cells^1.33] moves (at least
    32), for up to 90 temperatures. After each temperature the anneal
    stops early in either of two cases:
    - {e done}: the placement is legal (weighted overfill 0) and
      {!Sta.analyze} meets [clock_target_mhz] on a pre-route estimate
      that gives each net the Manhattan hops from its driver to its
      farthest sink, at [Rrg.base_delay] per hop and [Rrg.slr_delay]
      per SLR crossing, times a margin of 1.5;
    - {e frozen}: fewer than 1% of that temperature's moves were
      accepted.

    The greedy cleanup and legalization run after either exit, as after
    the full schedule. Raises [Invalid_argument] if the netlist exceeds
    region capacity. To race several seeds, see [Pnr.implement_multi]. *)

val refine :
  ?seed:int ->
  ?pins:(string * (int * int)) list ->
  ?freeze:bool ->
  device:Device.t ->
  region:Floorplan.rect ->
  previous:(int * int) array ->
  diff:N.diff ->
  N.t ->
  result
(** Delta placement: [previous] is the prior placement indexed by the
    {e old} netlist's cell ids, [diff] maps it onto the new netlist.
    Kept cells are frozen at their old tiles ([freeze], default [true];
    [false] seeds them there but lets the anneal move everything — the
    fallback tier when the frozen pass cannot legalize around the
    edit); changed/added cells and
    cells on rewired nets anneal through a short low-temperature pass
    sized to that movable subset, with no early exit. With an empty
    diff the previous
    placement is returned untouched. Raises [Invalid_argument] like
    {!run}; the caller must ensure the region is the one the previous
    placement targeted. *)
