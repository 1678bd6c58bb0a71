(** Compile-as-a-service: a multi-tenant request queue in front of the
    shared artifact store.

    The service owns one {!Pld_core.Build.cache} (optionally backed by
    a persistent {!Pld_engine.Store}) and a pool of worker domains.
    Tenants submit compile requests; admission control bounds each
    tenant's queue, a FIFO-with-priority scheduler hands admitted jobs
    to the workers, and identical in-flight requests are deduplicated —
    the second tenant asking for a graph that is already queued or
    compiling piggybacks on the first build instead of re-running it.
    Requests that arrive after a build finished still win via the
    shared cache: every operator is a link-time hit, so nothing is
    re-synthesized. Both paths are visible in {!outcome} and {!stats}
    as dedup and cross-tenant hit counts — the cache economics the
    daemon and [bench service] report.

    Thread-safety: every function on {!t} may be called from any
    domain. *)

open Pld_ir
open Pld_core

type quota = {
  max_in_flight : int;  (** concurrent running jobs per tenant *)
  max_queued : int;  (** admitted-but-not-running jobs per tenant *)
  cache_write_budget : int option;
      (** store writes the tenant may cause; once spent, its builds run
          against {!Build.readonly_view} (reads still shared). [None]
          is unlimited. *)
}

val default_quota : quota
(** 4 in flight, 64 queued, unlimited writes. *)

(** Structured refusals and failures. Admission refusals ([Queue_full],
    [Shed], [Draining]) are returned by {!submit} and never become job
    states; terminal job errors ([Deadline_exceeded], [Lost],
    [Build_failed]) come back from {!await}. Each class has its own
    counter in {!stats}, so issued requests are conserved:
    [submitted = completed + failed + deadline_exceeded + lost +
    queued + in_flight]. *)
type reject =
  | Queue_full of { tenant : string; queued : int; max_queued : int }
  | Shed of { retry_after_ms : int; reason : string }
      (** Load shedding: the estimated queue delay exceeded the shed
          policy's budget. [retry_after_ms] hints when to come back. *)
  | Deadline_exceeded of { stage : string; overrun_ms : int }
      (** The request's [deadline_ms] passed while [stage] (["queued"]
          or ["build"]). Mid-build expiry fires at the next tool-phase
          boundary. *)
  | Draining of string  (** the service is draining or shut down *)
  | Lost of string
      (** the build was written off: watchdog kill, shutdown orphan, or
          an {!await} bound expired *)
  | Build_failed of string  (** the compile itself raised *)

val reject_message : reject -> string

val reject_state : reject -> string
(** Wire-state tag: [QUEUE_FULL], [SHED], [DEADLINE_EXCEEDED],
    [DRAINING], [LOST] or [FAILED]. *)

val reject_retry_after_ms : reject -> int option
(** A backoff hint for the transient classes ([Shed] carries its own
    estimate; [Queue_full]/[Draining] a nominal one); [None] for the
    terminal classes, which a retry cannot fix. *)

(** Overload shedding: refuse work whose estimated queue delay (pending
    jobs at or above its priority plus running builds, amortized over
    the worker pool at the EWMA build time) exceeds the budget. *)
type shed_policy = {
  sp_max_delay_s : float;  (** estimated-delay budget *)
  sp_exempt_priority : int;  (** priority at or above this is never shed *)
  sp_assumed_build_s : float;  (** EWMA seed before any build finished *)
}

val default_shed_policy : shed_policy
(** 30 s budget, exempt priority 100, 50 ms assumed build. *)

type t

val create :
  ?cache:Build.cache ->
  ?cache_dir:string ->
  ?max_bytes:int ->
  ?quarantine:bool ->
  ?fp:Pld_fabric.Floorplan.t ->
  ?queue_workers:int ->
  ?workers:int ->
  ?jobs:int ->
  ?pace:float ->
  ?seed:int ->
  ?default_quota:quota ->
  ?quotas:(string * quota) list ->
  ?shed:shed_policy ->
  ?watchdog_timeout_s:float ->
  ?watchdog_tick_s:float ->
  ?faults:Pld_faults.Fault.t ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  ?logger:Pld_telemetry.Log.t ->
  unit ->
  t
(** Start the service: [queue_workers] (default 2) domains begin
    pulling jobs immediately. [cache] shares an existing cache;
    [cache_dir] opens a persistent one with LRU budget [max_bytes] and
    corrupt-entry [quarantine] mode (passing both [cache] and
    [cache_dir] raises [Invalid_argument]); with neither the service
    is in-memory only. [fp] (default U50),
    [workers]/[jobs]/[pace]/[seed] are the compile parameters every
    job runs with — a fixed seed is what makes equal graphs hit equal
    cache keys across tenants. [quotas] pre-registers per-tenant
    quotas; unknown tenants get [default_quota].

    [shed] (default: no shedding) enables overload shedding. A
    watchdog domain always runs (it expires queued deadlines and
    paces timed waits at [watchdog_tick_s], default 10 ms); with
    [watchdog_timeout_s] it additionally writes off any build running
    longer than the limit — the job fails as {!Lost}, a replacement
    worker is spawned, and the wedged worker is quarantined until its
    build returns. [faults] interprets [hang=<graph>@<ms>] specs from
    {!Pld_faults.Fault} as wedged tool invocations for exactly that
    graph name — the chaos harness's lever.

    [logger] (default {!Pld_telemetry.Log.default}) receives
    structured events for the request lifecycle: admission verdicts
    and dispatches at [Debug], refusals and failures at [Warn], and
    watchdog kills at [Error] — the level that trips an armed flight
    recorder. *)

type outcome = {
  o_tenant : string;
  o_graph : string;
  o_level : Build.level;
  o_cache_hits : int;
  o_recompiled : int;
  o_store_writes : int;  (** store puts this build caused *)
  o_deduped : bool;  (** piggybacked on an identical in-flight job *)
  o_cross_tenant : bool;
      (** served from another tenant's work: deduped onto it, or
          recompiled nothing because it was already in the cache *)
  o_queue_seconds : float;  (** admission to dispatch *)
  o_build_seconds : float;  (** dispatch to completion *)
  o_latency_seconds : float;  (** admission to completion *)
  o_app : Build.app;
}

val outcome_json : outcome -> Pld_telemetry.Json.t
(** Everything except [o_app] — what the daemon sends back. *)

type ticket

val submit :
  t ->
  tenant:string ->
  ?priority:int ->
  ?level:Build.level ->
  ?deadline_ms:int ->
  ?trace_id:string ->
  Graph.t ->
  (ticket, reject) result
(** Enqueue a compile request. [trace_id] (default: freshly minted)
    names the request's distributed trace: it is stamped as a
    ["trace"] attribute on every telemetry span and instant the
    request produces — the admission verdict, the queue wait, the
    build's tool-phase spans, and the end-to-end ["request"] span — so
    one id links the whole lifecycle, including a dedup follower's
    (whose trace shows the join and the outcome but no tool phases).

    Higher [priority] (default 0) is served
    first; equal priorities are FIFO. Admission fails with
    {!Queue_full} when the tenant already has [max_queued] admitted
    jobs waiting, with {!Shed} when the shed policy's delay budget is
    blown, and with {!Draining} when the service is draining or shut
    down. A request identical to an in-flight one (same graph source
    and level) is always admitted: it consumes no queue slot and no
    worker, it just waits for the primary build (whose deadline
    governs). [deadline_ms] starts the request's time budget at
    admission; an expired job fails with {!Deadline_exceeded} — from
    the queue within a watchdog tick, from a running build at the next
    tool-phase boundary. *)

val await : ?timeout_s:float -> t -> ticket -> (outcome, reject) result
(** Block until the ticket's job finishes (or is failed by the
    deadline machinery, the watchdog or {!shutdown}). May be called
    from any domain, repeatedly. The wait is deadline-aware: it gives
    up with {!Lost} after [timeout_s] when given, else 30 s past the
    job's own deadline when it has one; with neither it blocks
    indefinitely. *)

val compile :
  t ->
  tenant:string ->
  ?priority:int ->
  ?level:Build.level ->
  ?deadline_ms:int ->
  ?trace_id:string ->
  Graph.t ->
  (outcome, reject) result
(** [submit] then [await]. *)

type tenant_stats = {
  ts_tenant : string;
  ts_submitted : int;
  ts_completed : int;
  ts_failed : int;
  ts_rejected : int;
  ts_deduped : int;
  ts_cross_hits : int;
  ts_store_writes : int;
  ts_queued : int;  (** snapshot: admitted, waiting *)
  ts_in_flight : int;  (** snapshot: running *)
}

type stats = {
  st_submitted : int;
  st_completed : int;
  st_failed : int;
  st_rejected : int;  (** queue-full and draining refusals *)
  st_shed : int;  (** overload-shed refusals (not in [st_rejected]) *)
  st_deadline_exceeded : int;  (** jobs expired queued or mid-build *)
  st_lost : int;  (** watchdog kills and shutdown orphans *)
  st_watchdog_kills : int;  (** wedged builds written off *)
  st_deduped : int;
  st_cross_hits : int;
  st_queue_depth : int;
  st_in_flight : int;
  st_latencies : float list;  (** seconds, completion order *)
  st_tenants : tenant_stats list;  (** sorted by tenant name *)
  st_store : Pld_engine.Store.stats option;
}

val stats : t -> stats

val percentile : float list -> float -> float
(** [percentile samples q] with [q] in [0,1] —
    {!Pld_util.Stats.percentile} (linear interpolation between order
    statistics); 0 for an empty list. *)

val stats_json : stats -> Pld_telemetry.Json.t
val render_stats : stats -> string list

val status_json : t -> Pld_telemetry.Json.t
(** Live snapshot for the [Status] admin verb: uptime and state,
    queue occupancy ([depth]/[in_flight]/[workers]/[avg_build_s]),
    the rejection-taxonomy counters, per-tenant quota occupancy with
    latency p50/p95/p99 derived from bucket counts
    ({!Pld_telemetry.Quantile.of_buckets} over fixed shared edges),
    and one entry per in-flight build with its age and trace id.
    Render with {!Protocol.render_status}. *)

val health_json : t -> Pld_telemetry.Json.t
(** Cheap liveness document: [ok] (accepting work), [state]
    ([running]/[draining]/[stopping]), uptime, queue depth and
    in-flight count. *)

val cache : t -> Build.cache
(** The shared cache (the full-write view). *)

val profile_key : Pld_ir.Graph.t -> Build.level -> Pld_util.Digest_lite.t
(** The key fabric profiles are stored under — identical to the job
    key builds dedup on, so an artifact and its profile travel
    together. *)

val find_profile : t -> Pld_ir.Graph.t -> Build.level -> Pld_telemetry.Json.t option
(** The persisted fabric-profile document for this (graph, level), if
    any run has produced one — including a run by another tenant whose
    build this one dedup'd onto. *)

val put_profile : t -> Pld_ir.Graph.t -> Build.level -> Pld_telemetry.Json.t -> unit
(** Persist a fabric profile next to the build's artifacts. *)

val draining : t -> bool
(** True once {!drain} or {!shutdown} has begun: new submissions are
    refused with {!Draining}. *)

val drain : ?grace_s:float -> t -> unit
(** Graceful stop: refuse new work (honest {!Draining} rejections),
    wait up to [grace_s] (default 5 s) for queued and running jobs to
    finish, then {!shutdown}. Jobs still queued when the grace budget
    runs out fail as {!Lost}. *)

val shutdown : t -> unit
(** Stop accepting work, fail every still-queued job as {!Lost}, let
    running builds finish, and join the worker and watchdog domains.
    Idempotent. *)
