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
    daemon and [pldc service] report.

    Thread-safety: every function on {!t} may be called from any
    domain. *)

open Pld_ir
open Pld_core

(** {2 Requests, refusals and quotas}

    The request vocabulary is the policy core's ({!Policy.Terms}),
    re-exported here. Admission refusals ([Queue_full], [Shed],
    [Draining]) are returned by {!submit}; terminal job errors
    ([Deadline_exceeded], [Lost], [Build_failed]) come back from
    {!await}. Each class has its own counter in {!stats}, so issued
    requests are conserved: [submitted = completed + failed +
    deadline_exceeded + lost + queued + in_flight + following]. *)

include module type of struct
  include Policy.Terms
end

type t

val create :
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
  ?faults:Pld_faults.Fault.t ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  ?logger:Pld_telemetry.Log.t ->
  unit ->
  t
(** Start the service: [queue_workers] (default 2) domains begin
    pulling jobs immediately. [cache_dir] opens a persistent cache with
    LRU budget [max_bytes] and corrupt-entry [quarantine] mode (raising
    {!Pld_engine.Store.Store_error} when the directory cannot be used);
    without it the service is in-memory only. {!cache} reaches the
    cache, for instance to scrub its store before serving. [fp]
    (default U50),
    [workers]/[jobs]/[pace]/[seed] are the compile parameters every
    job runs with — a fixed seed is what makes equal graphs hit equal
    cache keys across tenants. [quotas] pre-registers per-tenant
    quotas; unknown tenants get [default_quota].

    [shed] (default: no shedding) enables overload shedding. A
    watchdog domain always runs (it expires queued deadlines and
    paces timed waits on a 10 ms tick); with
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
  st_queue_depth : int;  (** primaries waiting for a worker *)
  st_in_flight : int;  (** primaries running *)
  st_following : int;  (** dedup followers waiting on a queued or running primary *)
  st_latency_buckets : (float * int) list;
      (** completion latency, every tenant's buckets merged, in the
          [(upper_edge, count)] shape of {!Pld_telemetry.Quantile.of_buckets} *)
  st_tenants : tenant_stats list;  (** sorted by tenant name *)
  st_store : Pld_engine.Store.stats option;
}

val stats : t -> stats

val percentile : float list -> float -> float
(** [percentile samples q] with [q] in [0,1] —
    {!Pld_util.Stats.percentile} (linear interpolation between order
    statistics); 0 for an empty list. *)

val stats_json : t -> Pld_telemetry.Json.t
(** The [Stats] wire verb's document: the global counts, queue levels,
    latency p50/p95/p99 (bucket estimates over every tenant,
    {!Pld_telemetry.Quantile.of_buckets}), one entry per tenant — the
    same entries {!status_json} lists — and the store's stats. *)

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

val find_profile : t -> Pld_ir.Graph.t -> Build.level -> Pld_telemetry.Json.t option
(** The persisted fabric-profile document for this (graph, level), if
    any run has produced one — including a run by another tenant whose
    build this one dedup'd onto. Profiles are stored under the job key
    builds dedup on, so an artifact and its profile travel together. *)

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
