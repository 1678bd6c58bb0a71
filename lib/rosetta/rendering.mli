(** Rosetta 3D rendering (§7.2): projection → rasterization (split by
    image region, as the paper decomposes large stages) → z-buffer
    merge, on a 16×16 frame with 8 input triangles. *)

open Pld_ir

val height : int
val width : int

val graph : ?target:Graph.target -> unit -> Graph.t
(** Input ["tri_in"]: 9 words per triangle (three x,y,z vertices);
    output ["frame_out"]: 256 depth words (255 = background). *)

val workload : ?seed:int -> unit -> (string * Value.t list) list
val reference : (string * Value.t list) list -> int array
val check : inputs:(string * Value.t list) list -> (string * Value.t list) list -> bool
