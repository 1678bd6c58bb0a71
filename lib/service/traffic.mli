(** Synthetic multi-tenant traffic: the workload behind [pldc service]
    and the service tier of the regression sentinel.

    Sessions draw operator chains from a fixed pool with Zipf-
    distributed popularity — a few operators are requested constantly,
    a long tail rarely — which is exactly the regime where a shared
    store pays: the hot head is compiled once and then served to every
    tenant from cache (or deduplicated in flight). Everything is
    seeded, so a (seed, options) pair names one reproducible trace. *)

open Pld_ir

type options = {
  sessions : int;  (** compile requests to issue *)
  tenants : int;  (** round-robin over [t0..t<n-1>] *)
  zipf : float;  (** skew exponent s; weight of rank r is 1/(r+1)^s *)
  pool : int;  (** distinct operators *)
  max_chain : int;  (** ops per session graph, uniform in 1..max_chain *)
  level : Pld_core.Build.level;
  seed : int;
}

val default_options : options
(** 200 sessions, 4 tenants, zipf 1.1, pool 24, chains up to 3, O1,
    seed 11. *)

val pool_op : int -> Op.t
(** The [i]-th pool operator ([svc<i>]) — source text varies with [i],
    so distinct indices never collide in the cache. *)

val chain_graph : int list -> Graph.t
(** The session graph for a chain of pool indices; equal chains yield
    byte-identical graphs (same name, same sources) and therefore the
    same service dedup key. *)

val chain_tokens : int list -> int
(** Input tokens for one frame through the chain. Pool operators are
    rate-uniform — every body execution consumes and produces the same
    token count — because the linked runner executes each body exactly
    once per frame; mixed rates would deadlock. *)

val chain_workload : int list -> (string * Value.t list) list
(** A ramp of {!chain_tokens} words on ["cin"] — the canonical runnable
    workload for {!chain_graph}. *)

val chain_name : int list -> string
(** The graph name [chain_graph] would use, e.g. ["svc-3x0x7"] — what
    a remote client sends the daemon to request the same build. *)

val chain_of_name : string -> (int list, string) result
(** Parse a [chain_name] back. *)

val bench_of_name : string -> (Pld_rosetta.Suite.bench, string) result
(** The one bench namespace of [pldc] and [pldd]: a Rosetta
    application by name, or a traffic chain (["svc-3x0x7"]) with its
    ramp workload and a vacuous output check. The error names every
    Rosetta bench. *)

type summary = {
  sm_options : options;
  sm_wall_seconds : float;
  sm_completed : int;
  sm_failed : int;
  sm_backpressure : int;  (** admissions that had to retry after a rejection *)
  sm_deduped : int;
  sm_cross_hits : int;
  sm_distinct_graphs : int;
  sm_cache_hits : int;  (** summed over compiled (non-deduped) sessions *)
  sm_recompiled : int;
  sm_store_writes : int;
  sm_p50 : float;
  sm_p95 : float;
  sm_p99 : float;
  sm_mean : float;
  sm_max : float;
  sm_per_tenant : (string * int) list;  (** completed jobs per tenant *)
  sm_cross_rate : float;  (** cross-tenant hits / completed *)
}

val run : service:Service.t -> options -> summary
(** Drive [options.sessions] requests through the service and await
    them all. Admission rejections are retried after draining one
    outstanding ticket (counted in [sm_backpressure]), so every session
    eventually completes unless its build fails. *)

val summary_json : summary -> Pld_telemetry.Json.t
val render : summary -> string list
