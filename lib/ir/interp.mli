(** The reference evaluator for operators.

    Executes an operator body against caller-supplied stream callbacks
    — the same code runs under the Kahn-network scheduler (blocking
    callbacks), the softcore co-simulation checker, and unit tests
    (queue-backed callbacks).

    {!compile} turns an operator into closures once, before its first
    firing: names, loop counters and ports resolve to storage slots and
    stream endpoints, and each node's static dtype picks its code. A
    node whose operands and result are narrow ({!Value.is_narrow})
    computes on immediates with no allocation; a narrowing cast over a
    sum, product, bitwise result or left shift computes that node on
    immediates too, even when its full-precision type is wide. Every
    other node takes the limb path ({!binop}, {!unop}). Outputs, counters
    and error messages are those of a direct tree walk. *)

type io = {
  read : string -> unit -> Value.t;
      (** [read port] resolves an input port once; the result performs one
          blocking read per call *)
  write : string -> Value.t -> unit;  (** [write port] resolves an output port the same way *)
  printf : string -> Value.t list -> unit;  (** -O0 debug sink *)
}

type counters = {
  mutable ops : int;  (** expression nodes evaluated *)
  mutable reads : int;
  mutable writes : int;
  mutable loop_iterations : int;
  mutable multiplies : int;
  mutable divides : int;
}

val fresh_counters : unit -> counters

val compile : ?processor:bool -> ?counters:counters -> Op.t -> io -> unit -> unit
(** [compile op io] returns one firing: each call executes the body
    once, from freshly initialised locals, charging [counters].
    [processor] enables [Printf] statements (the paper's [#ifdef RISCV]
    guard); default false. Compiling raises nothing: scoping errors
    {!Validate} would have caught, unresolvable ports and out-of-bounds
    accesses raise when the offending statement executes, with the
    tree walker's exceptions and messages. *)

val run_operator : ?processor:bool -> ?counters:counters -> Op.t -> io -> unit
(** One complete execution of the body: [compile] and fire once. *)

val queue_io :
  inputs:(string * Value.t Queue.t) list ->
  outputs:(string * Value.t Queue.t) list ->
  io
(** Non-blocking test harness: reading an empty queue raises
    [Failure]. *)

(** {2 Operations}

    One table for both evaluators: the reference interpreter and the
    softcore's firmware runtime ([Pld_riscv.Softcore]). *)

val binop : Expr.binop -> Value.t -> Value.t -> Value.t
(** The limb path of a binary node; [LAnd]/[LOr] evaluate both sides. *)

val unop : Expr.unop -> Value.t -> Value.t

type 'f kernel =
  | Imm of Dtype.t * 'f
      (** result dtype, and the node on its operands' images
          ({!Value.low}): the exact immediate when the result is narrow,
          the result's low 63 bits otherwise. An operation that needs
          exact operands (a comparison, division, remainder or right
          shift) gets an [Imm] kernel only when they are narrow, and a
          shift only when {!Value.int_of_low} reads its amount off the
          image. *)
  | Limb of Dtype.t  (** result dtype; the limb path only *)

val bin_kernel : Expr.binop -> Dtype.t -> Dtype.t -> (int -> int -> int) kernel option
(** The node for operands of these dtypes; [None] when the operation
    is ill-typed for them (bitwise or [%] on fixed point), which the
    limb path reports when executed. *)

val un_kernel : Expr.unop -> Dtype.t -> (int -> int) kernel option
val cast_kernel : src:Dtype.t -> dst:Dtype.t -> (int -> int) kernel
val bitcast_kernel : src:Dtype.t -> dst:Dtype.t -> (int -> int) kernel
