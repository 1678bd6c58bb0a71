open Pld_ir
open Pld_core
module Fp = Pld_fabric.Floorplan
module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module Log = Pld_telemetry.Log
module Quantile = Pld_telemetry.Quantile
module P = Policy
include Policy.Terms

let outcome_json o =
  Json.Obj
    [
      ("tenant", Json.String o.o_tenant);
      ("graph", Json.String o.o_graph);
      ("level", Json.String (Build.level_name o.o_level));
      ("cache_hits", Json.Int o.o_cache_hits);
      ("recompiled", Json.Int o.o_recompiled);
      ("store_writes", Json.Int o.o_store_writes);
      ("deduped", Json.Bool o.o_deduped);
      ("cross_tenant", Json.Bool o.o_cross_tenant);
      ("queue_seconds", Json.Float o.o_queue_seconds);
      ("build_seconds", Json.Float o.o_build_seconds);
      ("latency_seconds", Json.Float o.o_latency_seconds);
    ]

type ticket = P.job

(* The shell: one lock and one condition around the policy core, the
   worker and watchdog domains, and the builds themselves. Every
   decision is the core's; the shell only feeds it inputs and renders
   what it reports. *)
type t = {
  mu : Mutex.t;
  cond : Condition.t;
  core : P.t;
  sv_cache : Build.cache;
  ro_cache : Build.cache;  (* readonly view for exhausted write budgets *)
  fp : Fp.t;
  telemetry : T.t;
  logger : Log.t;
  t_started : float;
  workers : int;
  jobs : int;
  pace : float;
  seed : int;
  faults : Pld_faults.Fault.t option;  (* hang= specs wedge builds by graph name *)
  mutable pool : unit Domain.t list;
  mutable wd_domain : unit Domain.t option;
}

(* How often the watchdog expires queued deadlines, looks for wedged
   builds and wakes timed waits. *)
let watchdog_tick_s = 0.01

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let set_depth_gauges t =
  let l = t.core.P.total in
  T.set_gauge (T.gauge t.telemetry "service.queue_depth") (float_of_int l.P.queued);
  T.set_gauge (T.gauge t.telemetry "service.in_flight") (float_of_int l.P.in_flight)

(* Must hold t.mu. The one renderer: each core effect becomes the
   telemetry counters, spans, instants and log lines of the request it
   belongs to. *)
let render t ~now (e : P.effect) =
  let attrs (j : P.job) extra = [ ("trace", j.P.j_trace); ("tenant", j.P.j_tenant) ] @ extra in
  (* A wall span ending now, on the request's trace. *)
  let span name (j : P.job) ~since extra =
    let dur_us = Float.max 0.0 ((now -. since) *. 1e6) in
    T.span t.telemetry ~cat:"service" ~attrs:(attrs j extra) ~name
      ~start_us:(T.now_us t.telemetry -. dur_us)
      ~dur_us ()
  in
  let log level (j : P.job) ~sub fields msg =
    Log.log t.logger ~trace:j.P.j_trace ~fields:(("tenant", j.P.j_tenant) :: fields) level ~sub msg
  in
  let graph (j : P.job) = ("graph", j.P.j_graph.Graph.graph_name) in
  let level (j : P.job) = ("level", Build.level_name j.P.j_level) in
  match e with
  | P.Count c -> T.incr (T.counter t.telemetry ("service." ^ P.counter_name c))
  | P.Admitted j ->
      T.instant t.telemetry ~cat:"service" ~attrs:(attrs j []) "admission.admit";
      log Log.Debug j ~sub:"service.queue" [ graph j; level j ] "admitted"
  | P.Joined j ->
      let primary = [ ("primary_trace", (Option.get j.P.j_primary).P.j_trace) ] in
      T.instant t.telemetry ~cat:"service" ~attrs:(attrs j primary) "dedup.join";
      log Log.Debug j ~sub:"service.dedup" primary "joined in-flight build"
  | P.Refused { tenant; trace; reject } -> (
      T.instant t.telemetry ~cat:"service"
        ~attrs:[ ("trace", trace); ("tenant", tenant); ("state", reject_state reject) ]
        "admission.reject";
      let warn fields msg =
        Log.warn t.logger ~trace ~fields:(("tenant", tenant) :: fields) ~sub:"service.queue" msg
      in
      match reject with
      | Queue_full { queued; _ } -> warn [ ("queued", string_of_int queued) ] "queue full"
      | Shed _ -> warn [] (reject_message reject)
      | Draining _ | Deadline_exceeded _ | Lost _ | Build_failed _ -> ())
  | P.Dispatched { job = j; _ } ->
      span "queue.wait" j ~since:j.P.j_enqueued [];
      log Log.Debug j ~sub:"service.queue"
        [ ("wait_s", Printf.sprintf "%.4f" (j.P.j_started -. j.P.j_enqueued)) ]
        "dispatched"
  | P.Settled { job = j; cause } -> (
      let result = match j.P.j_state with P.Finished r -> r | P.Queued | P.Running -> assert false in
      let tag = match result with Ok _ -> "ok" | Error e -> reject_state e in
      span "request" j ~since:j.P.j_enqueued [ ("outcome", tag) ];
      Result.iter
        (fun o -> T.observe (T.histogram t.telemetry "service.latency_seconds") o.o_latency_seconds)
        result;
      let failed sub what e =
        log Log.Warn j ~sub [ graph j ]
          (Printf.sprintf "%s (%s): %s" what (reject_state e) (reject_message e))
      in
      match (j.P.j_primary, cause, result) with
      | Some primary, P.Built, _ ->
          log Log.Debug j ~sub:"service.dedup"
            [ ("primary_tenant", primary.P.j_tenant) ]
            (Printf.sprintf "follower finished (%s)" tag)
      | Some _, (P.Unqueued | P.Wedged _), _ | None, P.Unqueued, Ok _ -> ()
      | None, P.Built, Ok o ->
          log Log.Info j ~sub:"service.build"
            [
              graph j;
              level j;
              ("latency_s", Printf.sprintf "%.4f" o.o_latency_seconds);
              ("cache_hits", string_of_int o.o_cache_hits);
            ]
            "completed"
      | None, P.Built, Error e -> failed "service.build" "failed" e
      | None, P.Unqueued, Error e -> failed "service.queue" "failed queued" e
      | None, P.Wedged ran_s, _ ->
          (* Error level: with a flight recorder armed on the logger,
             this is the event that dumps the ring and a metrics
             snapshot to disk. *)
          log Log.Error j ~sub:"service.watchdog"
            [ graph j; ("ran_s", Printf.sprintf "%.2f" ran_s) ]
            "build wedged, worker quarantined")
  | P.Stopping { orphaned } ->
      Log.info t.logger ~fields:[ ("orphaned", string_of_int orphaned) ] ~sub:"service"
        "shutting down"
  | P.Abandoned _ | P.Late _ -> ()

(* Must hold t.mu: feed the core one input at the current time, render
   what happened, and wake every waiter if anything did. *)
let step t input =
  let now = Unix.gettimeofday () in
  let effects = P.step t.core ~now input in
  List.iter (render t ~now) effects;
  if List.exists (function P.Admitted _ | P.Dispatched _ | P.Settled _ -> true | _ -> false) effects
  then set_depth_gauges t;
  if effects <> [] then Condition.broadcast t.cond;
  effects

(* ---------- workers and watchdog ---------- *)

let build t (j : P.job) ~read_only =
  (* A seeded hang= fault keyed by graph name models a wedged tool
     invocation (cycles are milliseconds here): the build sits in its
     worker until the watchdog writes it off. *)
  (match t.faults with
  | Some f -> (
      match Pld_faults.Fault.hang_cycles f ~inst:j.P.j_graph.Graph.graph_name with
      | Some ms -> Unix.sleepf (float_of_int ms /. 1000.0)
      | None -> ())
  | None -> ());
  (* The executor checks the deadline at every tool-phase boundary, so
     an expired build stops at the next one instead of running to
     completion. *)
  try
    Ok
      (Build.compile
         ~cache:(if read_only then t.ro_cache else t.sv_cache)
         ~workers:t.workers ~jobs:t.jobs ~pace:t.pace ~seed:t.seed ?deadline:j.P.j_deadline
         ~telemetry:t.telemetry
         ~attrs:[ ("trace", j.P.j_trace); ("tenant", j.P.j_tenant) ]
         t.fp j.P.j_graph ~level:j.P.j_level)
  with e -> Error e

let rec worker_loop t =
  Mutex.lock t.mu;
  let rec pick () =
    if t.core.P.stopping then None
    else
      match
        List.find_map
          (function P.Dispatched { job; read_only } -> Some (job, read_only) | _ -> None)
          (step t P.Dispatch)
      with
      | Some _ as picked -> picked
      | None ->
          Condition.wait t.cond t.mu;
          pick ()
  in
  match pick () with
  | None -> Mutex.unlock t.mu
  | Some (job, read_only) ->
      Mutex.unlock t.mu;
      let result = build t job ~read_only in
      Mutex.lock t.mu;
      let effects = step t (P.Finish { job; result }) in
      Mutex.unlock t.mu;
      (* A late return means the watchdog replaced this worker while it
         was wedged: exit so the pool size stays constant. *)
      if not (List.exists (function P.Late _ -> true | _ -> false) effects) then worker_loop t

(* The watchdog doubles as the service's clock: every tick it lets the
   core expire deadlines and write off wedged builds (spawning a
   replacement for each quarantined worker), and broadcasts so timed
   waits ([await] bounds, [drain]) can exist at all — stdlib
   [Condition] has no timed wait. *)
let rec watchdog_loop t =
  Mutex.lock t.mu;
  let stop = t.core.P.stopping in
  if not stop then begin
    List.iter
      (function
        | P.Abandoned _ -> t.pool <- t.pool @ [ Domain.spawn (fun () -> worker_loop t) ]
        | _ -> ())
      (step t P.Tick);
    Condition.broadcast t.cond
  end;
  Mutex.unlock t.mu;
  if not stop then begin
    Unix.sleepf watchdog_tick_s;
    watchdog_loop t
  end

(* ---------- public API ---------- *)

let create ?cache_dir ?max_bytes ?quarantine ?fp ?(queue_workers = 2) ?(workers = 22)
    ?(jobs = 1) ?(pace = 0.0) ?(seed = 7) ?default_quota ?quotas ?shed ?watchdog_timeout_s ?faults
    ?(telemetry = T.default) ?(logger = Log.default) () =
  let sv_cache = Build.create_cache ?dir:cache_dir ?max_bytes ?quarantine ~telemetry () in
  let queue_workers = max 1 queue_workers in
  let t =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      core = P.create ~queue_workers ?default_quota ?quotas ?shed ?watchdog_timeout_s ();
      sv_cache;
      ro_cache = Build.readonly_view sv_cache;
      fp = (match fp with Some fp -> fp | None -> Fp.u50 ());
      telemetry;
      logger;
      t_started = Unix.gettimeofday ();
      workers;
      jobs;
      pace;
      seed;
      faults;
      pool = [];
      wd_domain = None;
    }
  in
  t.pool <- List.init queue_workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.wd_domain <- Some (Domain.spawn (fun () -> watchdog_loop t));
  t

let cache t = t.sv_cache

(* Fabric profiles live in the shared artifact cache under the same
   key the build dedups on, so a cross-tenant or warm-cache hit finds
   the profile of whichever run actually produced the artifact. *)
let find_profile t g level = Build.find_profile t.sv_cache ~key:(P.job_key g level)
let put_profile t g level doc = Build.put_profile t.sv_cache ~key:(P.job_key g level) doc

let submit t ~tenant ?(priority = 0) ?(level = Build.O1) ?deadline_ms ?trace_id g =
  let trace = match trace_id with Some id -> id | None -> Log.mint_trace_id () in
  locked t @@ fun () ->
  step t (P.Submit { tenant; priority; graph = g; level; trace; deadline_ms })
  |> List.find_map (function
       | P.Admitted j | P.Joined j -> Some (Ok j)
       | P.Refused { reject; _ } -> Some (Error reject)
       | _ -> None)
  |> Option.get

(* Slack past a job's own deadline before an un-timed await gives up:
   wide enough that the deadline machinery (which fires within a
   watchdog tick) always wins, so this bound only trips if the job was
   truly lost. *)
let await_grace_s = 30.0

let await ?timeout_s t (j : ticket) =
  locked t @@ fun () ->
  let bound =
    match timeout_s with
    | Some s -> Some (Unix.gettimeofday () +. s)
    | None -> Option.map (fun d -> d +. await_grace_s) j.P.j_deadline
  in
  (* The watchdog broadcasts every tick, so this wait re-checks its
     bound at tick granularity — a deadline-aware wait built on an
     untimed Condition. *)
  let rec wait () =
    match j.P.j_state with
    | P.Finished r -> r
    | P.Queued | P.Running -> (
        match bound with
        | Some b when Unix.gettimeofday () > b ->
            Error (Lost "await: timed out waiting for the job")
        | _ ->
            Condition.wait t.cond t.mu;
            wait ())
  in
  wait ()

let compile t ~tenant ?priority ?level ?deadline_ms ?trace_id g =
  match submit t ~tenant ?priority ?level ?deadline_ms ?trace_id g with
  | Error e -> Error e
  | Ok ticket -> await t ticket

let draining t = locked t (fun () -> t.core.P.draining)

(* ---------- stats: every document renders the one ledger ---------- *)

type tenant_stats = {
  ts_tenant : string;
  ts_submitted : int;
  ts_completed : int;
  ts_failed : int;
  ts_rejected : int;
  ts_deduped : int;
  ts_cross_hits : int;
  ts_store_writes : int;
  ts_queued : int;
  ts_in_flight : int;
}

type stats = {
  st_submitted : int;
  st_completed : int;
  st_failed : int;
  st_rejected : int;
  st_shed : int;
  st_deadline_exceeded : int;
  st_lost : int;
  st_watchdog_kills : int;
  st_deduped : int;
  st_cross_hits : int;
  st_queue_depth : int;
  st_in_flight : int;
  st_following : int;
  st_latency_buckets : (float * int) list;
  st_tenants : tenant_stats list;
  st_store : Pld_engine.Store.stats option;
}

let latency_buckets counts = Quantile.buckets_of_counts ~edges:P.latency_edges ~counts

(* Must hold t.mu. *)
let snapshot t =
  let l = t.core.P.total and tenants = P.tenants t.core in
  let merged =
    Array.init
      (Array.length P.latency_edges + 1)
      (fun i -> List.fold_left (fun acc tn -> acc + tn.P.tn_lat_counts.(i)) 0 tenants)
  in
  let tenant_stats (tn : P.tenant) =
    let l = tn.P.tn_ledger in
    {
      ts_tenant = tn.P.tn_name;
      ts_submitted = l.P.submitted;
      ts_completed = l.P.completed;
      ts_failed = l.P.failed;
      ts_rejected = l.P.rejected;
      ts_deduped = l.P.deduped;
      ts_cross_hits = l.P.cross_hits;
      ts_store_writes = l.P.store_writes;
      ts_queued = l.P.queued;
      ts_in_flight = l.P.in_flight;
    }
  in
  {
    st_submitted = l.P.submitted;
    st_completed = l.P.completed;
    st_failed = l.P.failed;
    st_rejected = l.P.rejected;
    st_shed = l.P.shed;
    st_deadline_exceeded = l.P.deadline_exceeded;
    st_lost = l.P.lost;
    st_watchdog_kills = l.P.watchdog_kills;
    st_deduped = l.P.deduped;
    st_cross_hits = l.P.cross_hits;
    st_queue_depth = l.P.queued;
    st_in_flight = l.P.in_flight;
    st_following = l.P.following;
    st_latency_buckets = latency_buckets merged;
    st_tenants = List.map tenant_stats tenants;
    st_store = Option.map Pld_engine.Store.stats (Build.cache_store t.sv_cache);
  }

let stats t = locked t (fun () -> snapshot t)

let percentile samples q =
  match samples with [] -> 0.0 | xs -> Pld_util.Stats.percentile (100.0 *. q) xs

(* The documents below all render the core's ledgers through these two
   functions: the counts of one ledger, and a tenant's entry. *)
let ledger_json (l : P.ledger) =
  [
    ("submitted", Json.Int l.P.submitted);
    ("completed", Json.Int l.P.completed);
    ("failed", Json.Int l.P.failed);
    ("rejected", Json.Int l.P.rejected);
    ("shed", Json.Int l.P.shed);
    ("deadline_exceeded", Json.Int l.P.deadline_exceeded);
    ("lost", Json.Int l.P.lost);
    ("watchdog_kills", Json.Int l.P.watchdog_kills);
    ("deduped", Json.Int l.P.deduped);
    ("cross_tenant_hits", Json.Int l.P.cross_hits);
  ]

let quantiles_json buckets =
  List.map
    (fun (name, q) -> (name, Json.Float (Quantile.of_buckets buckets q)))
    [ ("p50_s", 0.50); ("p95_s", 0.95); ("p99_s", 0.99) ]

let tenant_json (tn : P.tenant) =
  let l = tn.P.tn_ledger in
  Json.Obj
    ((("tenant", Json.String tn.P.tn_name) :: ledger_json l)
    @ [
        ("store_writes", Json.Int l.P.store_writes);
        ("queued", Json.Int l.P.queued);
        ("max_queued", Json.Int tn.P.tn_quota.max_queued);
        ("in_flight", Json.Int l.P.in_flight);
        ("max_in_flight", Json.Int tn.P.tn_quota.max_in_flight);
        ("following", Json.Int l.P.following);
        ( "latency",
          Json.Obj
            (("count", Json.Int (Array.fold_left ( + ) 0 tn.P.tn_lat_counts))
            :: quantiles_json (latency_buckets tn.P.tn_lat_counts)) );
      ])

let stats_json t =
  locked t @@ fun () ->
  let l = t.core.P.total and s = snapshot t in
  let store_json (ss : Pld_engine.Store.stats) =
    Json.Obj
      [
        ("entries", Json.Int ss.Pld_engine.Store.s_entries);
        ("bytes", Json.Int ss.Pld_engine.Store.s_bytes);
        ( "kinds",
          Json.List
            (List.map
               (fun (k : Pld_engine.Store.kind_stats) ->
                 Json.Obj
                   [
                     ("kind", Json.String k.Pld_engine.Store.ks_kind);
                     ("entries", Json.Int k.Pld_engine.Store.ks_entries);
                     ("bytes", Json.Int k.Pld_engine.Store.ks_bytes);
                     ("hits", Json.Int k.Pld_engine.Store.ks_hits);
                     ("misses", Json.Int k.Pld_engine.Store.ks_misses);
                     ("puts", Json.Int k.Pld_engine.Store.ks_puts);
                     ("evictions", Json.Int k.Pld_engine.Store.ks_evictions);
                   ])
               ss.Pld_engine.Store.s_kinds) );
      ]
  in
  Json.Obj
    (ledger_json l
    @ [
        ("queue_depth", Json.Int l.P.queued);
        ("in_flight", Json.Int l.P.in_flight);
        ("following", Json.Int l.P.following);
      ]
    @ List.map (fun (k, v) -> ("latency_" ^ k, v)) (quantiles_json s.st_latency_buckets)
    @ [
        ("tenants", Json.List (List.map tenant_json (P.tenants t.core)));
        ("store", match s.st_store with Some ss -> store_json ss | None -> Json.Null);
      ])

(* ---------- live introspection (Status / Health admin verbs) ---------- *)

let status_json t =
  locked t @@ fun () ->
  let now = Unix.gettimeofday () and l = t.core.P.total in
  let build_json (j : P.job) =
    Json.Obj
      [
        ("id", Json.Int j.P.j_id);
        ("tenant", Json.String j.P.j_tenant);
        ("graph", Json.String j.P.j_graph.Graph.graph_name);
        ("level", Json.String (Build.level_name j.P.j_level));
        ("age_s", Json.Float (now -. j.P.j_started));
        ("trace", Json.String j.P.j_trace);
      ]
  in
  Json.Obj
    [
      ("uptime_s", Json.Float (now -. t.t_started));
      ("state", Json.String (P.state_name t.core));
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int l.P.queued);
            ("in_flight", Json.Int l.P.in_flight);
            ("workers", Json.Int t.core.P.queue_workers);
            ("avg_build_s", Json.Float (t.core.P.avg_build_s));
          ] );
      ("counters", Json.Obj (ledger_json l));
      ("tenants", Json.List (List.map tenant_json (P.tenants t.core)));
      ("builds", Json.List (List.map build_json (P.running t.core)));
    ]

let health_json t =
  locked t @@ fun () ->
  let l = t.core.P.total in
  Json.Obj
    [
      ("ok", Json.Bool (not t.core.P.draining));
      ("state", Json.String (P.state_name t.core));
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.t_started));
      ("queue_depth", Json.Int l.P.queued);
      ("in_flight", Json.Int l.P.in_flight);
    ]

let render_stats (s : stats) =
  let head =
    Printf.sprintf
      "service: %d submitted, %d completed (%d dedup, %d cross-tenant), %d failed, %d rejected, \
       %d shed, %d deadline-exceeded, %d lost (%d watchdog kills)"
      s.st_submitted s.st_completed s.st_deduped s.st_cross_hits s.st_failed s.st_rejected
      s.st_shed s.st_deadline_exceeded s.st_lost s.st_watchdog_kills
  in
  let p = Quantile.of_buckets s.st_latency_buckets in
  let lat =
    Printf.sprintf "latency s: p50 %.4f  p95 %.4f  p99 %.4f  (%d samples)" (p 0.50) (p 0.95)
      (p 0.99)
      (List.fold_left (fun acc (_, c) -> acc + c) 0 s.st_latency_buckets)
  in
  let tenants =
    List.map
      (fun ts ->
        Printf.sprintf "  %-12s %4d done  %3d dedup  %3d cross  %3d rejected  %4d writes"
          ts.ts_tenant ts.ts_completed ts.ts_deduped ts.ts_cross_hits ts.ts_rejected
          ts.ts_store_writes)
      s.st_tenants
  in
  (head :: lat :: tenants)
  @ match s.st_store with Some ss -> Pld_engine.Store.render_stats ss | None -> []

let shutdown t =
  Mutex.lock t.mu;
  if t.core.P.stopping then Mutex.unlock t.mu
  else begin
    ignore (step t P.Shutdown);
    let pool = t.pool and wd = t.wd_domain in
    t.pool <- [];
    t.wd_domain <- None;
    Mutex.unlock t.mu;
    List.iter Domain.join pool;
    Option.iter Domain.join wd
  end

let drain ?(grace_s = 5.0) t =
  Mutex.lock t.mu;
  ignore (step t P.Drain);
  let deadline = Unix.gettimeofday () +. grace_s in
  let busy () =
    let l = t.core.P.total in
    l.P.queued + l.P.in_flight > 0
  in
  (* Woken by job completions and by the watchdog tick, so the grace
     bound is re-checked at tick granularity. *)
  while (not (t.core.P.stopping)) && busy () && Unix.gettimeofday () < deadline do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu;
  shutdown t
