(** Typed build-job graphs.

    A node is one unit of compilation work — an HLS run, a page
    assignment, a per-operator page compile, a monolithic compile —
    keyed by a stable id and carrying explicit dependency edges (the
    HLS result feeds page assignment feeds P&R). The executor runs
    ready nodes concurrently; a node reads its dependencies' artifacts
    through the context it receives.

    All nodes of one graph produce the same artifact type ['a]
    (clients use a variant when layers differ). *)

exception Invalid of string
(** Raised by {!make} on duplicate ids, unknown dependencies, or
    dependency cycles. *)

type 'a ctx = {
  fetch : string -> 'a;
      (** [fetch id] is the artifact of completed dependency [id];
          raises [Invalid] if [id] is not a dependency of this node. *)
  worker : int;  (** index of the worker domain running this node *)
}

type 'a node

val node :
  id:string ->
  kind:string ->
  ?deps:string list ->
  ?model:('a -> float) ->
  ?phases:('a -> (string * float) list) ->
  ('a ctx -> 'a) ->
  'a node
(** [model] and [phases] report the modeled backend-tool cost of the
    produced artifact (for the modeled phase spans and for pacing);
    both default to zero. *)

val id : 'a node -> string
val kind : 'a node -> string
val deps : 'a node -> string list
val model : 'a node -> 'a -> float
val phases : 'a node -> 'a -> (string * float) list
val run : 'a node -> 'a ctx -> 'a

type 'a t

val make : 'a node list -> 'a t
(** Validates and freezes the graph. *)

val size : 'a t -> int

val nodes : 'a t -> 'a node list
(** In submission order. *)

val order : 'a t -> 'a node list
(** A dependency-respecting (topological) order, stable with respect to
    submission order among independent nodes — the sequential execution
    order. *)

val dependents : 'a t -> string -> string list
(** Nodes that list the given id as a dependency. *)
