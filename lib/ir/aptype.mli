(** Static type inference for expressions, mirroring {!Value}'s dynamic
    growth rules exactly.

    The RISC-V code generator compiles arithmetic through the firmware
    ap-runtime and must know, at compile time, the precise result type
    of every intermediate — the property test in the suite checks this
    module against the interpreter on random expressions. *)

type t = { signed : bool; width : int; int_bits : int; is_bool : bool; fixed : bool }
(** [fixed] marks a declared [ap_[u]fixed] type: {!Value} keeps such a
    dtype as declared even with no fraction bits ([ap_ufixed<8,8>]) and
    divides it as fixed point, so {!to_dtype} and {!div} honour it.
    Computed results are canonical ([fixed = false]): an integer type
    exactly when they have no fraction bits. *)

val of_dtype : Dtype.t -> t
val to_dtype : t -> Dtype.t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t
val neg : t -> t
val bitwise : t -> t -> t
val shift : t -> t

type env = string -> Dtype.t
(** Variable (or array-element) dtype lookup; loop variables are
    [SInt 32]. *)

val infer : env -> Expr.t -> t
(** Raises [Invalid_argument] on unknown variables. *)
