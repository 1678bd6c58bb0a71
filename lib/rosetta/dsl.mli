(** Construction helpers shared by the Rosetta benchmark graphs. *)

open Pld_ir

val u32 : Dtype.t
val i32 : Dtype.t
val fx32 : Dtype.t
(** ap_fixed<32,17>, the optical-flow working type. *)

val fx64 : Dtype.t
(** ap_fixed<64,40>, the wide intermediate type. *)

val c : Dtype.t -> int -> Expr.t
(** Integer constant. *)

val cf : Dtype.t -> float -> Expr.t
val v : string -> Expr.t
val idx : string -> Expr.t -> Expr.t
val ( .%[] ) : string -> Expr.t -> Expr.t

val assign : string -> Expr.t -> Op.stmt
val set : string -> Expr.t -> Expr.t -> Op.stmt
(** [set a i e] is [a[i] = e]. *)

val read : string -> string -> Op.stmt
(** [read x port] *)

val read_at : string -> Expr.t -> string -> Op.stmt
val write : string -> Expr.t -> Op.stmt
(** [write port e] *)

val for_ : ?pipeline:bool -> string -> int -> int -> Op.stmt list -> Op.stmt
val if_ : Expr.t -> Op.stmt list -> Op.stmt list -> Op.stmt

val pipe_op :
  name:string ->
  ins:string list ->
  outs:string list ->
  ?locals:Op.decl list ->
  Op.stmt list ->
  Op.t
(** Operator with 32-bit word ports. *)

(** {2 Single-rate operator templates}

    The shapes the random dataflow-graph generator ([lib/proptest])
    composes: each consumes [n] tokens per firing on every input port
    and produces [n] on every output port. [dt] is the internal compute
    type (default the 32-bit word); stream payloads stay 32-bit words
    via bitcasts on read/write. *)

val map_op : name:string -> n:int -> ?dt:Dtype.t -> (Expr.t -> Expr.t) -> Op.t
(** Ports "in" → "out": one token out per token in. *)

val dup_op :
  name:string -> n:int -> ?dt:Dtype.t -> (Expr.t -> Expr.t) -> (Expr.t -> Expr.t) -> Op.t
(** Fan-out. Ports "in" → "out0"/"out1": each input token is written
    (through [f] and [g]) to both outputs. *)

val zip_op : name:string -> n:int -> ?dt:Dtype.t -> (Expr.t -> Expr.t -> Expr.t) -> Op.t
(** Join. Ports "in0"/"in1" → "out": pairwise combination. *)

val chain :
  name:string ->
  input:string ->
  output:string ->
  (Op.t * Graph.target) list ->
  Graph.t
(** Linear pipeline: each operator has ports "in"/"out"; channels are
    generated between consecutive stages. *)

val reduce_tree : Expr.t list -> Expr.t
(** Balanced addition tree — keeps inferred widths logarithmic, the
    way HLS builds reduction adders. *)

val word_values : int list -> Value.t list
val fx_word : float -> Value.t
(** ap_fixed<32,17> encoded into a 32-bit stream word. *)

val fx_of_word : Value.t -> float
