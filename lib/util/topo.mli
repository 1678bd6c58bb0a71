(** Topological sorting and cycle detection over small integer graphs. *)

exception Cycle of int list
(** Raised by {!sort} with one witness cycle (vertex list). *)

val sort : n:int -> edges:(int * int) list -> int list
(** [sort ~n ~edges] topologically orders vertices [0..n-1] where each
    [(u, v)] edge means "u before v". Stable with respect to vertex
    numbering among independent vertices. Raises {!Cycle} if cyclic. *)

val longest_path : n:int -> edges:(int * int * float) list -> float array
(** [longest_path ~n ~edges] gives, for each vertex, the weight of the
    longest weighted path ending at it (0 for sources). Requires a DAG;
    raises {!Cycle} otherwise. Edge [(u, v, w)] contributes [dist u + w]
    to [v]. *)
