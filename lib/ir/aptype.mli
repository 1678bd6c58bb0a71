(** The one rule for the type of an ap_int/ap_fixed result.

    Results grow to full precision as in the Xilinx HLS library;
    assignment narrows them ({!Value.cast}). {!Value}'s arithmetic, the
    evaluator's kernels ({!Interp}) and the -O0 code generator's static
    types ({!Expr.infer}) all take their result types from here; the
    test suite's [Test_value.Ref] is the independent reference.

    A result is canonical: an integer type exactly when it has no
    fraction bits. A declared [ap_[u]fixed] operand with none
    ([ap_ufixed<8,8>]) is still fixed point, and divides as such. *)

val add : Dtype.t -> Dtype.t -> Dtype.t
(** Both operands exactly, at a common signedness and fraction, plus
    one growth bit. *)

val sub : Dtype.t -> Dtype.t -> Dtype.t
(** As {!add}, but signed. *)

val mul : Dtype.t -> Dtype.t -> Dtype.t
(** Widths and integer bits add. *)

val div : Dtype.t -> Dtype.t -> Dtype.t
(** Integer operands: {!rem}'s type. Otherwise the exact fixed-point
    quotient's type. *)

val div_work : Dtype.t -> Dtype.t -> int * Dtype.t
(** [(shift, work)] for a fixed-point {!div}: [work] is the integer
    type of the quotient's width and sign. Both raw patterns, extended
    under their own signs to that width, the dividend's shifted left by
    [shift], divide under [work]'s sign into the quotient's raw
    pattern. *)

val rem : Dtype.t -> Dtype.t -> Dtype.t
(** The common integer type: the wider width, plus one bit when an
    unsigned operand meets a signed one. *)

val bitwise : Dtype.t -> Dtype.t -> Dtype.t
(** As {!rem}. *)

val lognot : Dtype.t -> Dtype.t
(** The operand's type, canonical ([bool] gives [ap_uint<1>]). *)

val neg : Dtype.t -> Dtype.t
(** One more bit, signed. *)
