(** Runtime values of the operator language.

    A value always carries its {!Dtype.t}. Arithmetic between values
    takes its full-precision result type from {!Aptype}, the one rule,
    brings the operands to it and does one {!Pld_apfixed.Bits}
    operation; assignment narrows with {!cast}.

    A value of at most {!narrow_bits} bits holds its raw pattern as an
    immediate [int] (the pattern read under the dtype's sign); wider
    values hold it as {!Pld_apfixed.Bits}. The arithmetic below ({!add}
    to {!shift_right}) is the limb path for every width, while casts,
    comparisons and conversions between narrow values stay on
    immediates; the compiled evaluator ({!Interp}) computes narrow nodes
    on immediates with the primitives at the end of this interface. *)

open Pld_apfixed

type t

val dtype : t -> Dtype.t

val of_bool : bool -> t
val of_int : Dtype.t -> int -> t
val of_float : Dtype.t -> float -> t
val of_bits : Dtype.t -> Bits.t -> t
(** Reinterpret a raw pattern under [dtype] (resizing as needed). *)

val to_bool : t -> bool
(** Nonzero test. *)

val to_int : t -> int
(** Truncating conversion (floor for fixed-point). *)

val to_float : t -> float

val to_bits : t -> Bits.t
(** The raw pattern at exactly [Dtype.width (dtype v)] bits. *)

val cast : Dtype.t -> t -> t
(** Value-preserving conversion with HLS truncate/wrap semantics. *)

val bitcast : Dtype.t -> t -> t
(** Raw reinterpretation: keep the bit pattern (resized unsigned). *)

val zero : Dtype.t -> t

(* Arithmetic: results carry a full-precision dtype; the caller narrows
   on assignment. *)
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t
(** Integer-only; raises [Invalid_argument] on fixed operands. *)

val neg : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
(** Bitwise ops are integer-only. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val compare : t -> t -> int
val equal_value : t -> t -> bool
(** Numeric equality (e.g. [UInt 8] 3 = [SInt 16] 3). *)

val equal : t -> t -> bool
(** Structural: same dtype and same bits. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {2 Immediates}

    An {e image} of a value is an [int]: for a narrow dtype it is the
    raw pattern read under the dtype's sign (the value is
    [image * 2^-frac]); for a wider one it is the pattern's low 63 bits.
    The low bits of a sum, difference, product, bitwise result or left
    shift depend only on the low bits of its operands, which is what
    lets a narrowing cast above such a node take images. *)

val narrow_bits : int
(** 62: the widest dtype held as an immediate. *)

val is_narrow : Dtype.t -> bool

val low : t -> int
(** The value's image. *)

val of_low : Dtype.t -> int -> t
(** The narrow value with this image (which must already fit the
    dtype, as {!fit} makes it). *)

val fit : Dtype.t -> int -> int
(** [fit dt x] keeps the low [width dt] bits of [x] and reads them
    under [dt]'s sign: the image of the wrapped value. Narrow [dt]
    only. *)

val rescale : int -> int -> int
(** [rescale d x] is [x * 2^d] modulo 2^63 for [d >= 0], and [x]
    shifted right arithmetically by [-d] (truncating toward negative
    infinity) for [d < 0]. *)

val raw_cast : src:Dtype.t -> dst:Dtype.t -> int -> int
(** {!cast} on images, for a narrow [dst]: exact from a narrow [src];
    from a wide one only when the kept bits lie below bit 63. *)

val raw_bitcast : src:Dtype.t -> dst:Dtype.t -> int -> int
(** {!bitcast} on images when [dst] or [src] is narrow. *)

val int_of_low : Dtype.t -> (int -> int) option
(** {!to_int} on the images of a dtype: any integer-valued dtype (its
    value modulo 2^63 is its image), or a narrow one whose integer part
    fits an immediate. *)
