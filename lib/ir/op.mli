(** Dataflow operators: the unit of separate compilation (paper §3.4).

    An operator is a C-like function whose only communication is via
    latency-insensitive stream ports. Its body obeys the operator
    discipline: static loop bounds, no allocation, no recursion, no
    shared memory. *)

type lvalue = LVar of string | LIdx of string * Expr.t

type stmt =
  | Assign of lvalue * Expr.t
  | Read of lvalue * string  (** [lv = port.read()] *)
  | Write of string * Expr.t  (** [port.write(e)] *)
  | For of { var : string; lo : int; hi : int; body : stmt list; pipeline : bool }
      (** [for (var = lo; var < hi; var++)]; [pipeline] mirrors
          [#pragma HLS pipeline]. *)
  | If of Expr.t * stmt list * stmt list
  | Printf of string * Expr.t list
      (** Processor-only debug output, elided on HW targets — the
          paper's [#ifdef RISCV printf] idiom. *)

type port = { port_name : string; elem : Dtype.t }

type decl =
  | Scalar of { name : string; dtype : Dtype.t; init : Value.t option }
  | Array of { name : string; dtype : Dtype.t; length : int; init : Value.t array option }

type t = {
  name : string;
  inputs : port list;
  outputs : port list;
  locals : decl list;
  body : stmt list;
}

val make :
  name:string -> inputs:port list -> outputs:port list -> ?locals:decl list -> stmt list -> t

val port : string -> Dtype.t -> port
val word_port : string -> port
(** A 32-bit stream port, the linking-network payload width. *)

val scalar : ?init:Value.t -> string -> Dtype.t -> decl
val array : ?init:Value.t array -> string -> Dtype.t -> int -> decl

val find_output : t -> string -> port option

val stmt_count : t -> int
(** Static statement count (loop bodies counted once). *)

val source : t -> string
(** C-like rendering of the whole operator; hashing this is how the
    incremental build cache detects changes. *)

val pp : Format.formatter -> t -> unit
