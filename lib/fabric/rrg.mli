(** Routing-resource graph: one node per tile, directed edges between
    orthogonal neighbours with finite wire capacity. SLR-crossing edges
    are scarcer and slower (§2.5). Built either for the whole device or
    for a page rectangle (the abstract-shell compile scope). *)

type node = int
(** Dense index; [node_of_tile]/[tile_of_node] convert. *)

type edge = {
  src : node;
  dst : node;
  capacity : int;  (** parallel wires *)
  delay_ns : float;
}

type t = {
  device : Device.t;
  region : Floorplan.rect;
  nodes : int;  (** count *)
  edges : edge array;
  out_edges : int list array;  (** edge indices by source node *)
}

val base_delay : float
(** Delay of one wire hop inside an SLR, in ns. *)

val slr_delay : float
(** Delay of one hop across the SLR boundary, in ns. *)

val node_of_tile : t -> int -> int -> node
(** Raises [Invalid_argument] outside the region. *)

val tile_of_node : t -> node -> int * int

val build : Device.t -> Floorplan.rect -> t
(** Wire capacity per tile boundary is 14; SLR crossings get 4 wires at
    3× delay. *)
