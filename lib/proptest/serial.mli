(** JSON (de)serialization of graphs, workloads and mutations.

    Exists so that shrunk failing cases can be persisted to the
    [corpus/] regression directory and replayed forever. Values are
    stored as dtype + raw hex pattern, so round-trips are exact to the
    bit (fixed-point included). *)

open Pld_ir
module Json = Pld_telemetry.Json

exception Malformed of string
(** Raised by every [*_of_json] on a document that does not decode. *)

val op_of_json : Json.t -> Op.t
val graph_to_json : Graph.t -> Json.t
val graph_of_json : Json.t -> Graph.t

val workload_to_json : (string * Value.t list) list -> Json.t
val workload_of_json : Json.t -> (string * Value.t list) list

val mutation_to_json : Mutate.t -> Json.t
val mutation_of_json : Json.t -> Mutate.t
