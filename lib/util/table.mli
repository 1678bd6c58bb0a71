(** Plain-text table rendering for the benchmark harness. *)

type align = Left | Right

val render : ?aligns:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays out a boxed ASCII table. Missing cells
    render empty; [aligns] defaults to [Left] per column. *)
