(** Island-style FPGA device model.

    The fabric is a grid of heterogeneous tiles (CLB / BRAM column /
    DSP column), two SLRs stacked vertically, a static-shell column
    holding the PCIe logic, and an HBM row at the bottom — an
    XCU50-class device scaled down ~16× so that place & route runs in
    seconds while keeping the same structure and asymptotics. *)

type tile_kind =
  | Clb
  | Bram  (** BRAM column tile: one BRAM18 *)
  | Dsp  (** DSP column tile *)
  | Shell  (** static region (PCIe shell), not placeable by users *)
  | Noc  (** linking-network / interface region (L1 overlay logic) *)
  | Hbm  (** HBM hard IP row *)

type t = {
  dev_name : string;
  cols : int;
  rows : int;
  kind : tile_kind array array;  (** [kind.(x).(y)] *)
  slr_boundary_row : int;  (** rows >= this are SLR1 *)
}

val tile_capacity : tile_kind -> Pld_netlist.Netlist.res
(** Placeable resources of one tile ([Shell]/[Noc]/[Hbm] are empty). *)

val slr_of_row : t -> int -> int

val kind_at : t -> int -> int -> tile_kind

val u50_model : unit -> t
(** The scaled XCU50: 40×30 tiles, SLR boundary at row 14, HBM rows
    0–1, shell columns 35–39, NoC column block 27–34. *)

val total_user_resources : t -> Pld_netlist.Netlist.res
(** Sum over CLB/BRAM/DSP tiles — the "available to developers" count
    reported in §7.1. *)

val render : t -> string
(** ASCII floorplan sketch (one char per tile). *)
