(** The shrunk-reproducer regression corpus.

    Every failing case the fuzzer finds is minimized and persisted
    here as a JSON document (graph + workload + optional mutation +
    the levels it was checked at). [test/corpus/] is committed, and
    the test suite replays it deterministically on every run — a bug
    found once is checked forever. *)

module B = Pld_core.Build

type entry = {
  note : string;  (** provenance: seed, case index, original failure *)
  expect : string option;
      (** a failing reproducer's oracle failure class; [None] for
          entries that must pass clean (e.g. mutant self-tests) *)
  levels : B.level list;
  graph : Pld_ir.Graph.t;
  workload : (string * Pld_ir.Value.t list) list;
  mutation : Mutate.t option;
}

val entry_of_json : Pld_telemetry.Json.t -> entry
(** Raises {!Serial.Malformed} on undecodable documents. *)

val save : dir:string -> name:string -> entry -> string
(** Write [<dir>/<name>.json] (creating [dir]), return the path. *)

val load : string -> entry
val load_dir : string -> (string * entry) list
(** All [*.json] entries of a directory in filename order; empty if
    the directory does not exist. *)

val replay : entry -> Oracle.failure list
(** Check the entry's pinned property. Empty = still holds. A mutant
    entry must pass clean {e and} stay caught when mutated; an
    [expect]ed failure must still reproduce with the same class; a
    plain entry must pass. *)
