(** The edit-sequence equivalence fuzzer behind [pldc fuzz --incremental].

    Each case is a random base graph plus a seeded sequence of small
    source edits — perturb one operator body, swap two same-instance
    input ports, grow a FIFO — replayed the way a developer iterates:
    every edit is compiled {e twice} at -O3, once through the delta
    P&R path chained on the previous build and once from scratch, and
    the two apps must agree bit-for-bit with the KPN reference on every
    output stream. The delta chain is never reset: step [k] reuses the
    delta build of step [k-1], so placement-reuse errors compound
    instead of being washed out.

    On top of output equivalence the oracle asserts delta quality: a
    delta build may never be congested (overused routing edges) or
    lose legality when the scratch build of the same source is legal. *)

module B = Pld_core.Build

type edit =
  | Touch of string  (** append a behavior-neutral printf to an operator body *)
  | Swap of { a : string * string; b : string * string }
      (** exchange two [(instance, input port)] bindings of one instance *)
  | Grow_fifo of { chan : string; add : int }  (** deepen one internal FIFO *)

type options = {
  q_seed : int;
  q_count : int;  (** edit sequences (base graphs) *)
  q_steps : int;  (** edits per sequence *)
  q_params : Gen.params;
  q_corpus_dir : string option;  (** persist failing-step reproducers *)
  q_fuel : int option;
}

val default_options : options
(** seed 42, 25 sequences of 4 edits, default generator params. *)

type step_report = {
  p_step : int;  (** 1-based position in the sequence *)
  p_edit : string;  (** the edit, rendered for humans *)
  p_fallback : string option;
      (** [None] when the delta path ran; [Some reason] when it fell
          back to scratch *)
  p_cells_moved : int;
  p_nets_rerouted : int;
  p_failures : Oracle.failure list;
}

type seq_report = {
  q_index : int;
  q_digest : string;  (** content digest of the base (graph, workload) *)
  q_instances : int;
  q_step_reports : step_report list;  (** in sequence order *)
  q_saved : string option;  (** corpus path of the failing step's graph *)
}

type summary = {
  z_seed : int;
  z_count : int;
  z_steps : int;
  z_seqs : seq_report list;
  z_passed : int;  (** sequences with no failing step *)
  z_failed : int;
  z_delta_hits : int;  (** steps the delta path actually served *)
  z_fallbacks : int;  (** steps that fell back to scratch, with reasons *)
}

val run : ?log:(string -> unit) -> options -> summary
(** Never raises: every toolchain error is a structured failure on the
    step that triggered it. [log] receives a line per failing step. *)

val summary_json : summary -> Pld_telemetry.Json.t
(** Bit-reproducible across runs with equal options. *)

val render : summary -> string
