(** Fixed-point numbers with Xilinx [ap_fixed<W,I>] semantics.

    A value has total width [W], integer bits [I] (including the sign
    bit when signed) and therefore [W - I] fractional bits; its numeric
    value is [raw * 2^(I - W)]. Arithmetic grows precision exactly as
    the HLS library does (full-precision intermediates); {!convert}
    performs the truncate-and-wrap that happens on assignment. *)

type t

val width : t -> int
val int_bits : t -> int
val signed : t -> bool
val raw : t -> Bits.t

val make : signed:bool -> int_bits:int -> Bits.t -> t
(** [make ~signed ~int_bits bits] uses [Bits.width bits] as [W].
    [int_bits] may exceed the width or be negative (pure-fraction
    formats), as in the Xilinx library. *)

val of_float : signed:bool -> width:int -> int_bits:int -> float -> t
(** Round to nearest, wrap on overflow (AP_RND-ish construction used
    only at the workload boundary). *)

val to_float : t -> float

val of_ap_int : Ap_int.t -> t
(** Integer reinterpreted as fixed point with [I = W]. *)

val to_ap_int : t -> Ap_int.t
(** Truncate toward negative infinity to an integer of width
    [max int_bits 1]. *)

val convert : signed:bool -> width:int -> int_bits:int -> t -> t
(** Assignment conversion: truncate extra fraction bits (toward
    negative infinity, AP_TRN) and wrap out-of-range integer bits
    (AP_WRAP) — the Xilinx defaults. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Full-precision intermediates: add/sub align fraction bits and grow
    one integer bit; mul sums widths and integer bits; div produces
    [W1 + W2] total bits with [I1 + (W2 - I2)] integer bits (enough for
    the exact quotient magnitude). Division by zero yields the all-ones
    raw pattern, mirroring {!Bits.sdiv}. *)

val neg : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val to_string : t -> string
