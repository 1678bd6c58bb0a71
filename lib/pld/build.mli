(** Application-level builds on the content-addressed engine.
    See DESIGN.md §8 for the layer diagram and the cache-key scheme.

    Each compile decomposes into a typed job graph (HLS feeds page
    assignment feeds per-page P&R; see [Pld_engine.Jobgraph]) executed
    by a real worker pool of OCaml domains, with artifacts cached
    in-process and, when a cache directory is given, in a persistent
    on-disk store — the Makefile discipline of §6 made durable across
    processes. *)

open Pld_ir

type level = O0 | O1 | O3 | Vitis

val level_name : level -> string

val level_of_name : string -> (level, string) result
(** The one level parser: [-O0], [O0], [o0] and [0] (likewise for 1
    and 3), and [vitis] or [Vitis]. Inverts {!level_name}. *)

exception Build_error of string
(** Re-export of {!Flow.Build_error}: a build artifact or graph piece
    that should exist does not. Replaces the bare [Option.get] /
    [Not_found] failures these lookups used to die with. *)

type compiled_operator =
  | Hw_page of Flow.o1_operator
  | Soft_page of Flow.o0_operator

type report = {
  level : level;
  per_op_seconds : (string * float) list;  (** modeled; 0 for cache hits *)
  phases : Flow.phase_times;  (** aggregate across recompiled operators *)
  serial_seconds : float;  (** modeled sum over recompiled operators *)
  parallel_seconds : float;
      (** the analytic cluster model: LPT makespan over [workers]
          machines (§7.1) — a prediction, reported next to the
          measured [wall_seconds] *)
  wall_seconds : float;  (** measured wall-clock of the executor run *)
  workers : int;  (** modeled cluster width used for [parallel_seconds] *)
  jobs : int;  (** executor domains that actually ran the build *)
  cache_hits : int;
  recompiled : int;
  by_kind : (string * int * int) list;
      (** per job kind: (kind, cache hits, misses) this build *)
  quarantined : (string * string) list;
      (** jobs that exhausted their retries under fault injection,
          with the final error (empty on healthy builds) *)
  fallbacks : string list;
      (** instances whose page compile was quarantined and which were
          re-linked onto the -O0 softcore build instead *)
  stored : int;  (** artifacts this build wrote to the persistent store *)
}

type app = {
  graph : Graph.t;
  fp : Pld_fabric.Floorplan.t;
  level : level;
  assignment : (string * int) list;  (** instance → page (O0/O1 only) *)
  operators : (string * compiled_operator) list;
  monolithic : Flow.o3_app option;  (** O3 / Vitis only *)
  report : report;
}

val monolithic_exn : app -> Flow.o3_app
(** The monolithic artifact, or {!Build_error} naming the app and its
    level when the build was paged. *)

val softcore_demand : Pld_netlist.Netlist.res
(** Fixed page-area footprint of the PicoRV32 softcore overlay (before
    the leaf interface) — used for page assignment, for the area
    report and for sizing spare pages during fault recovery. *)

(** {2 Cache}

    The cache is partitioned by artifact kind — a page bitstream
    ([Flow.o1_operator]), a softcore image ([Flow.o0_operator]) and a
    monolithic build ([Flow.o3_app]) live in separate typed tables and
    separate store namespaces, so an entry of one kind can never be
    returned (or silently overwritten) under a key of another. *)

type cache

val kind_page : string
val kind_softcore : string
val kind_mono : string

val create_cache :
  ?dir:string ->
  ?max_bytes:int ->
  ?quarantine:bool ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  unit ->
  cache
(** In-memory cache; with [dir], artifacts are additionally persisted
    to (and warm-started from) a content-addressed store on disk, so a
    fresh process recompiles only what changed. [max_bytes],
    [quarantine] and [telemetry] configure that store's LRU budget,
    corrupt-entry quarantine mode and stats sink (see
    {!Pld_engine.Store.open_}). *)

val readonly_view : cache -> cache
(** A view sharing this cache's tables and store for {e lookups} while
    never persisting new artifacts to disk — in-memory inserts still
    happen, so a build against the view stays internally consistent.
    The service hands this view to tenants whose cache-write budget is
    exhausted. *)

val cache_store : cache -> Pld_engine.Store.t option
(** The persistent store behind this cache, when it has one — the
    handle the daemon's stats endpoint reads. *)

val cache_size : cache -> int
(** In-memory entries across all kinds. *)

val cache_stats : cache -> (string * int * int) list
(** Cumulative [(kind, hits, misses)] over the cache's lifetime. *)

val cache_dir : cache -> string option

val find_profile : cache -> key:Pld_util.Digest_lite.t -> Pld_telemetry.Json.t option
(** Fabric-profile document stored under a build key (memory first,
    then the persistent store) — the mechanism by which a cache hit
    still carries the profile of the run that produced the artifact. *)

val put_profile : cache -> key:Pld_util.Digest_lite.t -> Pld_telemetry.Json.t -> unit
(** Store a fabric-profile JSON document under a build key. Respects
    the read-only view: in-memory always, on disk only when this cache
    persists. *)

val compile :
  ?cache:cache ->
  ?workers:int ->
  ?jobs:int ->
  ?pace:float ->
  ?seed:int ->
  ?deadline:float ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  ?attrs:(string * string) list ->
  ?faults:Pld_faults.Fault.t ->
  ?max_retries:int ->
  ?defective:int list ->
  ?previous:app ->
  ?pnr_seeds:int list ->
  Pld_fabric.Floorplan.t ->
  Graph.t ->
  level:level ->
  app
(** [level = O1] follows each instance's pragma (HW → page P&R,
    RISCV → softcore); [O0] forces every instance onto a softcore;
    [O3]/[Vitis] compile monolithically.

    [workers] (default 22) sizes the *modeled* compile cluster for
    [parallel_seconds]. [jobs] (default 1) sizes the *real* executor
    pool: with [jobs = 1] jobs run sequentially on the calling domain,
    with [jobs > 1] on that many OCaml domains. [pace] throttles each
    job to [pace] wall-seconds per modeled second (see
    [Pld_engine.Executor]); 0 (default) runs the simulator's own
    algorithms flat out. [deadline] (absolute wall time) stops the
    build at its next tool-phase boundary with
    [Pld_engine.Executor.Deadline_passed]. [telemetry] (default
    [Pld_telemetry.Telemetry.default]) is the sink the build span, the
    executor's spans/metrics and the cache-hit/cache-store instants
    are recorded into — the build's only trace; hand a private sink
    for hermetic trace analysis.

    [faults] injects failures into named jobs (see
    [Pld_faults.Fault.job_check]); it also switches the executor to
    [keep_going] so a page compile that exhausts [max_retries]
    (default 0) is quarantined and re-linked onto the softcore build
    ([report.fallbacks]) instead of aborting. [defective] is the page
    defect map: those pages are never assigned.

    [previous] — a prior app for the same graph — routes a monolithic
    ([O3]/[Vitis], same level) recompile through delta P&R: unchanged
    cells keep their placement, only nets touching moved cells are
    rerouted, and the [pnr.delta_hits] / [pnr.cells_moved] /
    [pnr.nets_rerouted] counters on [telemetry] record what the fast
    path did. The previous P&R is part of the cache key
    ([previous_pnr] input), so delta and scratch artifacts never
    collide. Paged levels ignore it (their incrementality is the
    per-operator cache). [pnr_seeds] with two or more seeds races that
    many anneals on domains for cold monolithic compiles and keeps the
    best post-STA timing; also part of the cache key. *)

