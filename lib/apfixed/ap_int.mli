(** Arbitrary-precision integers with Xilinx [ap_int]/[ap_uint]
    semantics: fixed declared width, two's-complement wrap on overflow,
    explicit signedness.

    Binary operations follow the HLS rules: operands are first extended
    to a common width (the max of the two, +1 when mixing signedness so
    the unsigned operand still fits), the operation is performed, and
    the result keeps that common width. Assignment back to a narrower
    variable truncates — that is {!resize}'s job. *)

type t

val width : t -> int
val signed : t -> bool
val bits : t -> Bits.t

val make : signed:bool -> Bits.t -> t
val of_int : ?signed:bool -> width:int -> int -> t
(** [signed] defaults to [true] (ap_int rather than ap_uint). *)

val to_int64 : t -> int64
(** Value according to signedness (sign- or zero-extended to 64 bits). *)

val to_int : t -> int
(** Like {!to_int64} but as a native int; truncates above 62 bits. *)

val to_float : t -> float

val resize : signed:bool -> width:int -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t

val compare : t -> t -> int
(** Value comparison (handles mixed signedness). *)

val min_value : signed:bool -> width:int -> t
val max_value : signed:bool -> width:int -> t

val to_string : t -> string
