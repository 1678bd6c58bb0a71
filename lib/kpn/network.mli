(** Kahn-process-network runtime: latency-insensitive stream links
    (§3.2) between cooperatively scheduled processes.

    Reads from an empty stream block; writes to a full stream block
    (back-pressure). Blocking is implemented with OCaml effects, so a
    process is ordinary straight-line code. The scheduler detects
    deadlock (no token moved in a full round) and fuel exhaustion. *)

open Pld_ir

type t
type channel

exception Deadlock of string list
(** Names of the processes still blocked. *)

exception Out_of_fuel of { steps : int; live : string list }
(** Scheduler resume budget exhausted while [live] processes were
    still running — usually a hung or livelocked operator. *)

val create : ?telemetry:Pld_telemetry.Telemetry.t -> ?pmu:Pld_telemetry.Pmu.t -> unit -> t
(** [telemetry] (default the process sink) receives one cosim track per
    process with its first firings as wall-clock spans, [kpn.resumes]
    and [kpn.spans_dropped] counters, and a [kpn.<channel>.peak]
    high-water gauge per channel (published even when {!run} raises).

    [pmu] (default none) additionally receives windowed series on the
    scheduler-round clock: [kpn.proc.<name>.firings] per process, and
    [kpn.chan.<name>.stall_read] / [.stall_write] / [.occupancy] per
    channel — the raw material of back-pressure attribution. *)

val channel : t -> ?capacity:int -> name:string -> Dtype.t -> channel
(** [capacity] defaults to 16; [max_int] means effectively unbounded. *)

val read : channel -> Value.t
(** Blocks (yields) until a token is available. Must be called from
    within a process body. *)

val write : channel -> Value.t -> unit
(** Blocks while the channel is full. *)

val yield : unit -> unit
(** Cooperatively give up the processor from within a process body —
    used by process bodies that poll (e.g. softcore co-simulation)
    instead of calling the blocking {!read}/{!write}. *)

val note_progress : t -> unit
(** Tell the deadlock detector that a process made internal progress
    (e.g. a softcore retired instructions) even though no token moved
    this round. *)

val try_read : channel -> Value.t option
(** Non-blocking; usable outside the network too. *)

val try_write : channel -> Value.t -> bool
(** Non-blocking enqueue respecting capacity; false when full. *)

val push : channel -> Value.t -> unit
(** Non-blocking enqueue that ignores capacity — host-side preloading
    of input channels. *)

val drain : channel -> Value.t list
(** Remove and return all buffered tokens (host-side). *)

val occupancy : channel -> int

val add_process : t -> name:string -> (unit -> unit) -> unit

val run : ?fuel:int -> t -> unit
(** Runs until every process finishes. [fuel] bounds scheduler resume
    steps (default 50 million). Raises {!Deadlock} or {!Out_of_fuel}. *)

type channel_stats = {
  chan : string;
  tokens : int;  (** total tokens ever enqueued *)
  peak_occupancy : int;
  block_events : int;  (** reader/writer blockings observed (sum of the two below) *)
  blocked_reads : int;  (** consumer stalled on an empty channel *)
  blocked_writes : int;  (** producer stalled on a full channel (back-pressure) *)
}

val stats : t -> channel_stats list
