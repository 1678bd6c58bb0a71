(** Rosetta digit recognition (§7.2): 1-nearest-neighbour matching of
    196-bit downsampled digits against a training set, refactored — as
    in the paper — into a systolic pipeline where each stage holds a
    slice of the training set and threads the best (distance, label)
    pair through with each test digit. *)

open Pld_ir

val graph : ?seed:int -> ?target:Graph.target -> unit -> Graph.t
(** [seed] generates the baked-in training set. Input ["digits_in"]:
    7 words per test digit; output ["labels_out"]: 1 label word per
    digit. *)

val workload : ?seed:int -> unit -> (string * Value.t list) list
(** Test digits are noisy copies of training vectors ([seed] must
    match the graph's). *)

val reference : ?seed:int -> (string * Value.t list) list -> int list
val check : ?seed:int -> inputs:(string * Value.t list) list -> (string * Value.t list) list -> bool
