(** Rosetta SPAM filtering (§7.2): logistic-regression scoring where —
    as in the paper's decomposition — the feature dot product is
    data-parallel across separate dot-product operators, with scatter
    and reduce operators around them. *)

open Pld_ir

val graph : ?seed:int -> ?target:Graph.target -> unit -> Graph.t
(** Input ["samples_in"]: 64 ap_fixed<32,17> words per sample;
    output ["verdict_out"]: one word per sample (1 = spam). *)

val workload : ?seed:int -> unit -> (string * Value.t list) list
val reference : ?seed:int -> (string * Value.t list) list -> (float * int) list
(** Per sample: (score, verdict). *)

val check : ?seed:int -> inputs:(string * Value.t list) list -> (string * Value.t list) list -> bool
(** Verdicts must match except for samples within 0.02 of the decision
    boundary (fixed-point rounding may flip those). *)
