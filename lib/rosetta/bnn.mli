(** Rosetta binarized neural network (§7.2): a small BNN classifier —
    fixed-point first convolution producing binary activations, a
    binary XNOR-popcount convolution, pooling, two binary fully
    connected layers and an argmax — with the weight coefficients held
    in on-chip memory, one operator per stage as in the paper. *)

open Pld_ir

val image_size : int
val n_images : int

val graph : ?seed:int -> ?target:Graph.target -> unit -> Graph.t
(** Input ["images_in"]: 64 pixel words per image (4-bit values);
    output ["class_out"]: one class word per image. *)

val workload : ?seed:int -> unit -> (string * Value.t list) list
val reference : ?seed:int -> (string * Value.t list) list -> int list
val check : ?seed:int -> inputs:(string * Value.t list) list -> (string * Value.t list) list -> bool
