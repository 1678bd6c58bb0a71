(** Seeded, bounded one-operator edits — the developer's side of the
    edit–compile–run loop.

    An edit replaces one operator's body with its {e pristine} body
    plus a single trailing [Printf ("edit <step>", [])] marker. Every
    step therefore has a source no earlier step had (so every cache key
    derived from it changes), each operator carries at most one marker
    (so its area stays bounded however long the loop runs), and the
    -O3 netlist diff against the previous build of the same bench is
    exactly that one operator. Chaining {!Pld_ir.Graph.touch_op}
    instead grows the operator by one printf per step until it fits no
    page ([Assign.No_fit]).

    Benches are visited round-robin in a fresh seeded order every
    round, and each bench's operators are drawn from a seeded shuffle
    bag, so every operator is edited once before any is edited twice
    and every bench gets the same number of edits per round. *)

type edit = { step : int;  (** 1-based position in the sequence *) bench : string; inst : string }

type t

val create : seed:int -> (string * Pld_ir.Graph.t) list -> t
(** An endless edit sequence over the named pristine graphs. Equal
    seeds give equal sequences. *)

val next : t -> edit

val apply : t -> Pld_ir.Graph.t -> edit -> Pld_ir.Graph.t
(** [apply t current e] is [current] with [e.inst]'s operator replaced
    by its pristine body plus the step's marker. *)
