(** The PLD page floorplan (Fig. 8, Tab. 1): the user DFX region
    divided into 22 L2 pages of four types, the linking-network region,
    and the static shell. *)

type rect = { x0 : int; y0 : int; x1 : int; y1 : int }  (** inclusive *)

type page = {
  page_id : int;  (** 1-based, as in Fig. 3 *)
  ptype : int;  (** 1..4, Tab. 1 page type *)
  rect : rect;
  capacity : Pld_netlist.Netlist.res;
  slr : int;
  noc_leaf : int * int;  (** tile where the leaf interface meets the NoC *)
}

type t = {
  device : Device.t;
  pages : page list;
  l1_region : rect;  (** the level-1 DFX region (all user logic + NoC) *)
  noc_region : rect;
  shell_region : rect;
}

val u50 : unit -> t
(** 22 pages: 7 Type-1, 7 Type-2, 7 Type-3, 1 Type-4. *)

val find_page : t -> int -> page
(** Raises [Not_found] for unknown ids. *)

val page_of_tile : t -> int -> int -> page option

val rect_capacity : Device.t -> rect -> Pld_netlist.Netlist.res

val type_summary : t -> (int * Pld_netlist.Netlist.res * int) list
(** [(ptype, capacity, count)] rows — our Table 1. *)

val render : t -> string
(** ASCII floorplan with page ids. *)
