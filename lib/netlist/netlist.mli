(** Post-synthesis netlists: the interchange between HLS, place &
    route, and the bitstream generator.

    Cells are placement macros (a whole w-bit adder, a register bank, a
    BRAM) carrying a resource vector; nets are driver→sinks hyperedges.
    Functional behaviour lives in the IR interpreter — the netlist
    carries structure, area and timing. *)

type res = { luts : int; ffs : int; brams : int; dsps : int }

val res_zero : res
val res_add : res -> res -> res
val res_luts : int -> res
val res_le : res -> res -> bool
(** Component-wise [<=]: does a demand fit a capacity? *)

val pp_res : Format.formatter -> res -> unit

type kind =
  | Arith  (** adder / subtractor / comparator *)
  | Mul  (** DSP multiplier *)
  | Div  (** long divider macro *)
  | Logic  (** bitwise / mux logic *)
  | Reg  (** pipeline register bank *)
  | Mem  (** BRAM array *)
  | Control  (** FSM / loop counters *)
  | Stream_in of string  (** leaf-interface input port *)
  | Stream_out of string

type cell = { cid : int; cname : string; kind : kind; res : res; delay_ns : float }
type net = { nid : int; nname : string; driver : int; sinks : int list }
type t = { nl_name : string; cells : cell array; nets : net array }

val kind_name : kind -> string

(** Imperative builder. *)
module Builder : sig
  type netlist := t
  type t

  val create : string -> t
  val add_cell : t -> name:string -> kind:kind -> res:res -> delay_ns:float -> int
  val add_net : t -> name:string -> driver:int -> sinks:int list -> int
  val finish : t -> netlist
  (** Validates cell references; raises [Invalid_argument] on dangling
      ids or self-loop single-cell nets. *)
end

val total_res : t -> res
val cell_count : t -> int
val net_count : t -> int

val ports : t -> (string * [ `In | `Out ]) list
(** Stream ports in cell order. *)

val merge : name:string -> (string * t) list -> t
(** Combine instance netlists into one flat netlist with instance-
    prefixed names — the -O3 monolithic elaboration. Nets are kept
    per-instance; cross-instance links are added by the caller. *)

val add_fifo_links : t -> (string * string * string * int) list -> t
(** [add_fifo_links nl links] with [(from_inst_port, to_inst_port,
    fifo_name, depth_words)] inserts a FIFO cell (BRAM-backed above 64
    words) between a [Stream_out] and a [Stream_in] cell, connecting
    them with nets — the -O3 kernel generator of Fig. 7. Port cell
    names must match exactly. *)

(** {2 Structural diff}

    Cells are matched across two netlists by [cname] (stable: HLS emits
    deterministic names and [merge] instance-qualifies them), nets by
    [nname] with connectivity compared through endpoint cell names.
    This is the input to delta place & route: kept cells may keep their
    placement, kept nets their routes. *)

type diff = {
  cells_kept : (int * int) list;
      (** [(old cid, new cid)] — same name, kind, resources, delay *)
  cells_changed : (int option * int) list;
      (** new cids needing (re)placement; [Some old] when the name
          matched but attributes differ, [None] for added cells *)
  cells_removed : int list;  (** old cids with no counterpart *)
  nets_kept : (int * int) list;
      (** [(old nid, new nid)] — same name and endpoint cell names *)
  nets_changed : int list;  (** new nids that are new or rewired *)
  nets_removed : int list;
}

val diff : t -> t -> diff
(** [diff old_nl new_nl]. *)

val diff_is_empty : diff -> bool
(** No changed/added/removed cells and no changed/removed nets. *)

val diff_change_fraction : diff -> float
(** Changed + removed cells over current cell count; 1.0 when the new
    netlist is empty. Drives the fall-back-to-scratch decision. *)
