(** Expressions of the operator language. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | LAnd | LOr

type unop = Neg | BNot | LNot

type t =
  | Const of Value.t
  | Var of string
  | Idx of string * t  (** array element read *)
  | Bin of binop * t * t
  | Un of unop * t
  | Cast of Dtype.t * t  (** value-preserving conversion *)
  | Bitcast of Dtype.t * t  (** raw reinterpretation, as in [x(31,0) = in.read()] *)
  | Select of t * t * t  (** [cond ? a : b] *)

val int : Dtype.t -> int -> t
val float_ : Dtype.t -> float -> t
val bool_ : bool -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( % ) : t -> t -> t
val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( > ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val ( lsl ) : t -> t -> t
val ( lsr ) : t -> t -> t
val ( land ) : t -> t -> t
val ( lor ) : t -> t -> t
val ( lxor ) : t -> t -> t

val vars : t -> string list
(** Free variable and array names, deduplicated, in first-use order. *)

type env = string -> Dtype.t
(** Variable (or array-element) dtype lookup; loop variables are
    [SInt 32]. *)

val infer : env -> t -> Dtype.t
(** The static type of an expression, by {!Aptype}'s rule: exactly the
    dtype its value has when evaluated. Raises [Invalid_argument] on
    select arms of different types, and whatever [env] raises on an
    unknown name. *)

val pp : Format.formatter -> t -> unit
(** C-like rendering. *)

val binop_name : binop -> string
