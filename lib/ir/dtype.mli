(** Datatypes of the operator language: the HLS-compatible subset the
    paper's operator discipline (§3.4) allows — arbitrary-precision
    integers and fixed-point, plus booleans from comparisons. *)

type t =
  | Bool
  | UInt of int  (** ap_uint<w> *)
  | SInt of int  (** ap_int<w> *)
  | UFixed of { width : int; int_bits : int }  (** ap_ufixed<w,i> *)
  | SFixed of { width : int; int_bits : int }  (** ap_fixed<w,i> *)

val word : t
(** The 32-bit stream payload type used by the linking network. *)

val width : t -> int
(** Physical bit width ([Bool] is 1). *)

val int_bits : t -> int
(** Integer bits, the sign bit included: the width for [Bool], [UInt]
    and [SInt]. It may exceed the width or be negative. *)

val frac : t -> int
(** Fraction bits: width minus integer bits (negative when the integer
    bits exceed the width). *)

val is_integer : t -> bool
(** True for [Bool], [UInt], [SInt]. *)

val is_signed : t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** C-style rendering, e.g. ["ap_fixed<32,17>"]. *)
