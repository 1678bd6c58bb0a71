(** Arbitrary-width two's-complement bit vectors.

    This is the storage layer underneath [Pld_ir.Value]'s wide values,
    whose result types [Pld_ir.Aptype] derives. A value is a raw bit
    pattern of a fixed [width]; signedness is an interpretation applied
    by callers (via the [_signed] variants and {!resize}). All arithmetic wraps modulo [2^width], matching hardware
    and the Xilinx ap_int semantics the paper's operators rely on.

    Widths from 1 to {!max_width} are supported; values are stored as
    32-bit limbs in OCaml ints. *)

type t

val max_width : int

val width : t -> int

val zero : int -> t
(** [zero w] is the all-zero vector of width [w]. *)

val one : int -> t
val ones : int -> t
(** All bits set. *)

val of_int : width:int -> int -> t
(** Two's-complement truncation of a native int to [width] bits. *)

val of_int64 : width:int -> int64 -> t

val to_int64_unsigned : t -> int64
(** Low 64 bits, zero-extended interpretation. *)

val to_int64_signed : t -> int64
(** Low 64 bits after sign-extending from [width]. *)

val to_int_trunc : t -> int
(** Low 62 bits as a native int (unsigned interpretation, truncated). *)

val get : t -> int -> bool
(** [get t i] is bit [i]; raises [Invalid_argument] out of range. *)

val msb : t -> bool
val equal : t -> t -> bool
val is_zero : t -> bool

val compare_unsigned : t -> t -> int
val compare_signed : t -> t -> int
(** Both require equal widths. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val mul : t -> t -> t
(** Wrapping product at the operand width. *)

val mul_full : t -> t -> t
(** Exact product, width [width a + width b], operands treated unsigned. *)

val udiv : t -> t -> t
val urem : t -> t -> t
(** Unsigned division; division by zero returns all-ones / the dividend
    (the usual hardware convention) rather than raising. *)

val sdiv : t -> t -> t
val srem : t -> t -> t
(** C-style truncating signed division. [sdiv x 0] is all-ones. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
val shift_right_logical : t -> int -> t
val shift_right_arith : t -> int -> t
(** Shift amounts larger than the width saturate to all-zeros (or the
    sign fill for arithmetic shifts). Negative amounts are invalid. *)

val resize : signed:bool -> width:int -> t -> t
(** Widen (zero- or sign-extend) or truncate to [width]. *)

val extract : t -> hi:int -> lo:int -> t
(** Bit slice [hi:lo] inclusive, width [hi - lo + 1]. *)

val popcount : t -> int

val of_hex : width:int -> string -> t
(** Parse a hexadecimal string (no prefix); raises on bad digits. *)

val to_hex : t -> string

val to_decimal_unsigned : t -> string
val to_decimal_signed : t -> string
