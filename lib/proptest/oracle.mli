(** The cross-level differential oracle.

    One generated application is executed at every requested
    optimization level (-O0 softcore co-simulation, -O1 separately
    compiled pages linked over the NoC, -O3 monolithic) and each
    output stream must be bit-identical to the KPN reference
    interpreter. On top of the differential check the oracle asserts
    structural invariants:

    - scheduler permutation: reference outputs are invariant under a
      permuted process-registration order (the Kahn property);
    - cache-key soundness: recompiling identical source on a warm
      cache recompiles nothing and changes nothing;
    - NoC delivery: the linking network delivers every flit of the
      frame exactly once (no loss, no duplication) absent injected
      faults. *)

open Pld_ir
module B = Pld_core.Build

type failure = { f_class : string; f_where : string; f_detail : string }
(** A structured verdict: [f_class] is a stable class name
    ("mismatch", "stall", "deadlock", "cache-key", ...) the shrinker
    preserves while minimizing; [f_where] locates the level or
    invariant; [f_detail] is human-readable. *)

val failure_to_string : failure -> string

type config = {
  levels : B.level list;  (** levels to compile and compare *)
  fuel : int option;  (** co-simulation fuel override *)
  check_permutation : bool;
  check_cache : bool;
  check_noc : bool;
}

val default_config : config
(** [-O0] and [-O3] with every invariant on. *)

val reference :
  ?fuel:int -> Graph.t -> inputs:(string * Value.t list) list -> Pld_kpn.Run_graph.result
(** The behavioural reference (KPN interpreter). *)

val compare_streams :
  where:string ->
  (string * Value.t list) list ->
  (string * Value.t list) list ->
  failure list
(** Bit-exact comparison of expected vs got output streams (raw 32-bit
    patterns, so dtype bookkeeping can neither mask nor fake a
    difference). *)

val catching : where:string -> (unit -> 'a) -> ('a, failure) result
(** Run a thunk, turning any exception into a failure with a stable
    class (build errors, stalls, traps, validation, codegen limits). *)

val check : ?config:config -> Graph.t -> inputs:(string * Value.t list) list -> failure list
(** Full differential + invariant check of one case. Empty list =
    pass. Never raises: compile/run errors come back as structured
    failures. *)

val check_mutated :
  ?config:config -> Mutate.t -> Graph.t -> inputs:(string * Value.t list) list -> failure list
(** Compile the clean source, apply [mutation] to the linked artifact,
    and compare against the clean reference. Empty = the mutant
    {e escaped}; non-empty = the oracle caught it. *)

val caught : ?config:config -> Mutate.t -> Graph.t -> inputs:(string * Value.t list) list -> bool
