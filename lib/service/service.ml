open Pld_ir
open Pld_core
module Fp = Pld_fabric.Floorplan
module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module Log = Pld_telemetry.Log
module Quantile = Pld_telemetry.Quantile

type quota = { max_in_flight : int; max_queued : int; cache_write_budget : int option }

let default_quota = { max_in_flight = 4; max_queued = 64; cache_write_budget = None }

type outcome = {
  o_tenant : string;
  o_graph : string;
  o_level : Build.level;
  o_cache_hits : int;
  o_recompiled : int;
  o_store_writes : int;
  o_deduped : bool;
  o_cross_tenant : bool;
  o_queue_seconds : float;
  o_build_seconds : float;
  o_latency_seconds : float;
  o_app : Build.app;
}

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

(* Structured refusals and failures: the daemon maps these onto wire
   states (SHED, DRAINING, ...) and the chaos harness onto conservation
   ledger classes, so a stringly-typed error can never be double- or
   un-counted. *)
type reject =
  | Queue_full of { tenant : string; queued : int; max_queued : int }
  | Shed of { retry_after_ms : int; reason : string }
  | Deadline_exceeded of { stage : string; overrun_ms : int }
  | Draining of string
  | Lost of string
  | Build_failed of string

let reject_message = function
  | Queue_full { tenant; queued; max_queued } ->
      Printf.sprintf "tenant %s: queue full (%d admitted, max %d)" tenant queued max_queued
  | Shed { retry_after_ms; reason } ->
      Printf.sprintf "shed: %s (retry after %d ms)" reason retry_after_ms
  | Deadline_exceeded { stage; overrun_ms } ->
      Printf.sprintf "deadline exceeded while %s (%d ms over)" stage overrun_ms
  | Draining msg -> msg
  | Lost msg -> msg
  | Build_failed msg -> msg

let reject_state = function
  | Queue_full _ -> "QUEUE_FULL"
  | Shed _ -> "SHED"
  | Deadline_exceeded _ -> "DEADLINE_EXCEEDED"
  | Draining _ -> "DRAINING"
  | Lost _ -> "LOST"
  | Build_failed _ -> "FAILED"

let reject_retry_after_ms = function
  | Shed { retry_after_ms; _ } -> Some retry_after_ms
  | Queue_full _ | Draining _ -> Some 100
  | Deadline_exceeded _ | Lost _ | Build_failed _ -> None

type shed_policy = {
  sp_max_delay_s : float;
  sp_exempt_priority : int;
  sp_assumed_build_s : float;
}

let default_shed_policy =
  { sp_max_delay_s = 30.0; sp_exempt_priority = 100; sp_assumed_build_s = 0.05 }

type job_state = Queued | Running | Finished of (outcome, reject) result

type job = {
  j_id : int;
  j_tenant : string;
  j_priority : int;
  j_graph : Graph.t;
  j_level : Build.level;
  j_key : string;
  j_trace : string;  (* request trace id, client-minted or server-filled *)
  j_enqueued : float;
  j_deadline : float option;  (* absolute wall-clock budget end *)
  mutable j_started : float;  (* dispatch time; 0.0 while queued *)
  mutable j_abandoned : bool;  (* watchdog wrote this build off *)
  mutable j_state : job_state;
  mutable j_followers : job list;  (* dedup piggybacks, primaries only *)
}

type ticket = job

(* Per-tenant latency lives as bucket counts, not sample lists: tenants
   are unbounded in request count, and the status endpoint derives
   p50/p95/p99 from the buckets on demand. Shared edges keep tenants
   comparable. *)
let latency_edges = [| 0.001; 0.003; 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0 |]

type tenant = {
  tn_name : string;
  tn_quota : quota;
  tn_lat_counts : int array;  (* length = latency_edges + 1; last is +inf *)
  mutable tn_queued : int;
  mutable tn_in_flight : int;
  mutable tn_submitted : int;
  mutable tn_completed : int;
  mutable tn_failed : int;
  mutable tn_rejected : int;
  mutable tn_deduped : int;
  mutable tn_cross_hits : int;
  mutable tn_store_writes : int;
}

(* Must hold t.mu (the arrays are guarded by the service lock). *)
let observe_tenant_latency tn seconds =
  let n = Array.length latency_edges in
  let rec slot i = if i >= n then n else if seconds <= latency_edges.(i) then i else slot (i + 1) in
  let i = slot 0 in
  tn.tn_lat_counts.(i) <- tn.tn_lat_counts.(i) + 1

type t = {
  mu : Mutex.t;
  cond : Condition.t;
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
  queue_workers : int;
  shed : shed_policy option;
  watchdog_timeout_s : float option;
  wd_tick_s : float;
  faults : Pld_faults.Fault.t option;  (* hang= specs wedge builds by graph name *)
  dq : quota;
  tenants : (string, tenant) Hashtbl.t;
  mutable pending : job list;  (* admission order, newest last *)
  inflight : (string, job) Hashtbl.t;  (* key -> queued/running primary *)
  running : (int, job) Hashtbl.t;  (* job id -> dispatched job, watchdog's beat *)
  first_tenant : (string, string) Hashtbl.t;  (* key -> first submitter *)
  mutable next_id : int;
  mutable stopping : bool;
  mutable draining : bool;
  mutable pool : unit Domain.t list;
  mutable wd_domain : unit Domain.t option;
  mutable avg_build_s : float;  (* EWMA of primary build wall time *)
  (* global counters *)
  mutable g_submitted : int;
  mutable g_completed : int;
  mutable g_failed : int;
  mutable g_rejected : int;
  mutable g_shed : int;
  mutable g_deadline : int;
  mutable g_lost : int;
  mutable g_wd_kills : int;
  mutable g_deduped : int;
  mutable g_cross : int;
  mutable g_latencies : float list;  (* reversed: newest first *)
}

(* Counter handles are re-fetched per bump so a [Telemetry.reset]
   between calls cannot strand a stale handle. *)
let bump t name = T.incr (T.counter t.telemetry ("service." ^ name))

let set_depth_gauges t =
  T.set_gauge (T.gauge t.telemetry "service.queue_depth") (float_of_int (List.length t.pending));
  let in_flight = Hashtbl.fold (fun _ tn acc -> acc + tn.tn_in_flight) t.tenants 0 in
  T.set_gauge (T.gauge t.telemetry "service.in_flight") (float_of_int in_flight)

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
      let quota = t.dq in
      let tn =
        {
          tn_name = name;
          tn_quota = quota;
          tn_lat_counts = Array.make (Array.length latency_edges + 1) 0;
          tn_queued = 0;
          tn_in_flight = 0;
          tn_submitted = 0;
          tn_completed = 0;
          tn_failed = 0;
          tn_rejected = 0;
          tn_deduped = 0;
          tn_cross_hits = 0;
          tn_store_writes = 0;
        }
      in
      Hashtbl.replace t.tenants name tn;
      tn

let job_key g level = Pld_util.Digest_lite.of_parts [ Graph.source g; Build.level_name level ]

(* ---------- completion ---------- *)

(* Must hold t.mu: route a terminal error into its counter class.
   Admission refusals (shed, queue-full, draining) are counted at the
   submit site — they never become job states. *)
let count_error t tn (r : reject) =
  match r with
  | Build_failed _ ->
      tn.tn_failed <- tn.tn_failed + 1;
      t.g_failed <- t.g_failed + 1;
      bump t "failed"
  | Deadline_exceeded _ ->
      t.g_deadline <- t.g_deadline + 1;
      bump t "deadline_exceeded"
  | Lost _ ->
      t.g_lost <- t.g_lost + 1;
      bump t "lost"
  | Shed _ | Queue_full _ | Draining _ -> ()

(* Record the request's umbrella span on the service timeline: one wall
   span from admission to completion, carrying the trace id and the
   outcome, so a trace shows the request end-to-end even when no build
   ran for it (dedup followers, queued expiries). May run with or
   without t.mu held — it only touches the telemetry sink. *)
let request_span t (j : job) ~outcome =
  let now = Unix.gettimeofday () in
  let dur_us = Float.max 0.0 ((now -. j.j_enqueued) *. 1e6) in
  T.span t.telemetry ~cat:"service"
    ~attrs:[ ("trace", j.j_trace); ("tenant", j.j_tenant); ("outcome", outcome) ]
    ~name:"request"
    ~start_us:(T.now_us t.telemetry -. dur_us)
    ~dur_us ()

let outcome_tag = function Ok _ -> "ok" | Error e -> reject_state e

let finish_follower t primary_tenant (result : (outcome, reject) result) (f : job) =
  let now = Unix.gettimeofday () in
  let tn = tenant_of t f.j_tenant in
  let result =
    match result with
    | Error e ->
        count_error t tn e;
        Error e
    | Ok o ->
        let cross = not (String.equal primary_tenant f.j_tenant) in
        tn.tn_completed <- tn.tn_completed + 1;
        tn.tn_deduped <- tn.tn_deduped + 1;
        t.g_completed <- t.g_completed + 1;
        t.g_deduped <- t.g_deduped + 1;
        bump t "completed";
        bump t "dedup_hits";
        if cross then begin
          tn.tn_cross_hits <- tn.tn_cross_hits + 1;
          t.g_cross <- t.g_cross + 1;
          bump t "cross_tenant_hits"
        end;
        let latency = now -. f.j_enqueued in
        t.g_latencies <- latency :: t.g_latencies;
        T.observe (T.histogram t.telemetry "service.latency_seconds") latency;
        observe_tenant_latency tn latency;
        Ok
          {
            o with
            o_tenant = f.j_tenant;
            o_cache_hits = 0;
            o_recompiled = 0;
            o_store_writes = 0;
            o_deduped = true;
            o_cross_tenant = cross;
            o_queue_seconds = now -. f.j_enqueued;
            o_build_seconds = 0.0;
            o_latency_seconds = latency;
          }
  in
  f.j_state <- Finished result;
  request_span t f ~outcome:(outcome_tag result);
  Log.debug t.logger ~trace:f.j_trace
    ~fields:[ ("tenant", f.j_tenant); ("primary_tenant", primary_tenant) ]
    ~sub:"service.dedup"
    (Printf.sprintf "follower finished (%s)" (outcome_tag result))

(* Must hold t.mu. *)
let finish t (j : job) started result =
  let now = Unix.gettimeofday () in
  let tn = tenant_of t j.j_tenant in
  tn.tn_in_flight <- tn.tn_in_flight - 1;
  Hashtbl.remove t.inflight j.j_key;
  Hashtbl.remove t.running j.j_id;
  let result =
    match result with
    | Error e ->
        count_error t tn e;
        Error e
    | Ok (app : Build.app) ->
        let writes = app.Build.report.Build.stored in
        tn.tn_store_writes <- tn.tn_store_writes + writes;
        let cross =
          app.Build.report.Build.recompiled = 0
          &&
          match Hashtbl.find_opt t.first_tenant j.j_key with
          | Some first -> not (String.equal first j.j_tenant)
          | None -> false
        in
        tn.tn_completed <- tn.tn_completed + 1;
        t.g_completed <- t.g_completed + 1;
        bump t "completed";
        if cross then begin
          tn.tn_cross_hits <- tn.tn_cross_hits + 1;
          t.g_cross <- t.g_cross + 1;
          bump t "cross_tenant_hits"
        end;
        let latency = now -. j.j_enqueued in
        t.g_latencies <- latency :: t.g_latencies;
        T.observe (T.histogram t.telemetry "service.latency_seconds") latency;
        observe_tenant_latency tn latency;
        (* EWMA of build wall time feeds the shed policy's queue-delay
           estimate. *)
        t.avg_build_s <- (0.7 *. t.avg_build_s) +. (0.3 *. (now -. started));
        Ok
          {
            o_tenant = j.j_tenant;
            o_graph = j.j_graph.Graph.graph_name;
            o_level = j.j_level;
            o_cache_hits = app.Build.report.Build.cache_hits;
            o_recompiled = app.Build.report.Build.recompiled;
            o_store_writes = writes;
            o_deduped = false;
            o_cross_tenant = cross;
            o_queue_seconds = started -. j.j_enqueued;
            o_build_seconds = now -. started;
            o_latency_seconds = latency;
            o_app = app;
          }
  in
  j.j_state <- Finished result;
  request_span t j ~outcome:(outcome_tag result);
  (match result with
  | Ok o ->
      Log.info t.logger ~trace:j.j_trace
        ~fields:
          [
            ("tenant", j.j_tenant);
            ("graph", j.j_graph.Graph.graph_name);
            ("level", Build.level_name j.j_level);
            ("latency_s", Printf.sprintf "%.4f" o.o_latency_seconds);
            ("cache_hits", string_of_int o.o_cache_hits);
          ]
        ~sub:"service.build" "completed"
  | Error e ->
      Log.warn t.logger ~trace:j.j_trace
        ~fields:[ ("tenant", j.j_tenant); ("graph", j.j_graph.Graph.graph_name) ]
        ~sub:"service.build"
        (Printf.sprintf "failed (%s): %s" (reject_state e) (reject_message e)));
  List.iter (finish_follower t j.j_tenant result) (List.rev j.j_followers);
  j.j_followers <- [];
  set_depth_gauges t;
  Condition.broadcast t.cond

(* Must hold t.mu. Fail a job that never reached a worker (queued
   deadline expiry, shutdown orphan). The caller has already removed it
   from t.pending. *)
let fail_queued t (j : job) rej =
  let tn = tenant_of t j.j_tenant in
  tn.tn_queued <- tn.tn_queued - 1;
  Hashtbl.remove t.inflight j.j_key;
  count_error t tn rej;
  let r = Error rej in
  j.j_state <- Finished r;
  request_span t j ~outcome:(reject_state rej);
  Log.warn t.logger ~trace:j.j_trace
    ~fields:[ ("tenant", j.j_tenant); ("graph", j.j_graph.Graph.graph_name) ]
    ~sub:"service.queue"
    (Printf.sprintf "failed queued (%s): %s" (reject_state rej) (reject_message rej));
  List.iter
    (fun f ->
      count_error t (tenant_of t f.j_tenant) rej;
      f.j_state <- Finished r;
      request_span t f ~outcome:(reject_state rej))
    (List.rev j.j_followers);
  j.j_followers <- [];
  set_depth_gauges t;
  Condition.broadcast t.cond

(* Must hold t.mu: expire queued jobs whose deadline has passed, in
   deadline order, so an earlier deadline never outlives a later one.
   Runs at every scheduling decision and every watchdog tick. *)
let expire_deadlines t =
  let now = Unix.gettimeofday () in
  let expired, alive =
    List.partition
      (fun j -> match j.j_deadline with Some d -> now > d | None -> false)
      t.pending
  in
  if expired <> [] then begin
    t.pending <- alive;
    List.iter
      (fun j ->
        let d = Option.get j.j_deadline in
        let overrun_ms = max 0 (int_of_float ((now -. d) *. 1000.0)) in
        fail_queued t j (Deadline_exceeded { stage = "queued"; overrun_ms }))
      (List.sort (fun a b -> compare a.j_deadline b.j_deadline) expired)
  end

(* Must hold t.mu. The watchdog gave up on a running build: the job
   (and its followers) fail as lost, the build is quarantined in its
   worker — the caller spawns a replacement worker, and the zombie's
   eventual return is ignored via j_abandoned. *)
let abandon_running t (j : job) ~ran_s =
  j.j_abandoned <- true;
  Hashtbl.remove t.running j.j_id;
  let tn = tenant_of t j.j_tenant in
  tn.tn_in_flight <- tn.tn_in_flight - 1;
  Hashtbl.remove t.inflight j.j_key;
  t.g_wd_kills <- t.g_wd_kills + 1;
  bump t "watchdog_kills";
  let rej = Lost (Printf.sprintf "watchdog: build wedged for %.2fs, worker quarantined" ran_s) in
  count_error t tn rej;
  let r = Error rej in
  j.j_state <- Finished r;
  request_span t j ~outcome:(reject_state rej);
  (* Error level: with a flight recorder armed on the logger, this is
     the event that dumps the ring and a metrics snapshot to disk. *)
  Log.error t.logger ~trace:j.j_trace
    ~fields:
      [
        ("tenant", j.j_tenant);
        ("graph", j.j_graph.Graph.graph_name);
        ("ran_s", Printf.sprintf "%.2f" ran_s);
      ]
    ~sub:"service.watchdog" "build wedged, worker quarantined";
  List.iter
    (fun f ->
      count_error t (tenant_of t f.j_tenant) rej;
      f.j_state <- Finished r;
      request_span t f ~outcome:(reject_state rej))
    (List.rev j.j_followers);
  j.j_followers <- [];
  set_depth_gauges t;
  Condition.broadcast t.cond

(* Must hold t.mu: estimated seconds before a newly admitted job at
   [priority] would reach a worker — pending work at or above its
   priority plus the running builds, amortized over the pool at the
   observed (EWMA) build time. *)
let queue_delay_estimate t ~priority =
  let ahead =
    List.fold_left (fun acc p -> if p.j_priority >= priority then acc + 1 else acc) 0 t.pending
  in
  let running = Hashtbl.length t.running in
  float_of_int (ahead + running) *. t.avg_build_s /. float_of_int (max 1 t.queue_workers)

(* ---------- scheduling ---------- *)

(* Highest priority first, FIFO within a priority, skipping tenants at
   their in-flight limit. Must hold t.mu. *)
let select t =
  let eligible j =
    let tn = tenant_of t j.j_tenant in
    tn.tn_in_flight < tn.tn_quota.max_in_flight
  in
  List.fold_left
    (fun acc j ->
      if not (eligible j) then acc
      else
        match acc with
        | Some b when b.j_priority >= j.j_priority -> acc (* earlier admission wins ties *)
        | Some _ | None -> Some j)
    None t.pending

let cache_for t tn =
  match tn.tn_quota.cache_write_budget with
  | Some budget when tn.tn_store_writes >= budget -> t.ro_cache
  | Some _ | None -> t.sv_cache

let run_job t (j : job) =
  let tn = tenant_of t j.j_tenant in
  let cache = cache_for t tn in
  let started = j.j_started in
  Mutex.unlock t.mu;
  (* A seeded hang= fault keyed by graph name models a wedged tool
     invocation (cycles are milliseconds here): the build sits in its
     worker until the watchdog writes it off. *)
  (match t.faults with
  | Some f -> (
      match Pld_faults.Fault.hang_cycles f ~inst:j.j_graph.Graph.graph_name with
      | Some ms -> Unix.sleepf (float_of_int ms /. 1000.0)
      | None -> ())
  | None -> ());
  (* The executor checks the deadline at every tool-phase boundary, so
     an expired build stops at the next one instead of running to
     completion. *)
  let result =
    try
      Ok
        (Build.compile ~cache ~workers:t.workers ~jobs:t.jobs ~pace:t.pace ~seed:t.seed
           ?deadline:j.j_deadline ~telemetry:t.telemetry
           ~attrs:[ ("trace", j.j_trace); ("tenant", j.j_tenant) ]
           t.fp j.j_graph ~level:j.j_level)
    with e -> Error e
  in
  Mutex.lock t.mu;
  if j.j_abandoned then
    (* The watchdog already failed this job and replaced this worker;
       the late result is dropped on the floor. *)
    bump t "watchdog_late_returns"
  else
    let result =
      match result with
      | Ok app -> Ok app
      | Error Pld_engine.Executor.Deadline_passed ->
          let overrun_ms =
            match j.j_deadline with
            | Some d -> max 0 (int_of_float ((Unix.gettimeofday () -. d) *. 1000.0))
            | None -> 0
          in
          Error (Deadline_exceeded { stage = "build"; overrun_ms })
      | Error e -> Error (Build_failed (Printexc.to_string e))
    in
    finish t j started result

let rec worker_loop t =
  let job =
    let rec pick () =
      if t.stopping then None
      else begin
        expire_deadlines t;
        match select t with
        | Some j ->
            t.pending <- List.filter (fun p -> p.j_id <> j.j_id) t.pending;
            j.j_state <- Running;
            j.j_started <- Unix.gettimeofday ();
            Hashtbl.replace t.running j.j_id j;
            let tn = tenant_of t j.j_tenant in
            tn.tn_queued <- tn.tn_queued - 1;
            tn.tn_in_flight <- tn.tn_in_flight + 1;
            (* The queue wait becomes a span on the request's trace:
               admission to dispatch, recorded at dispatch. *)
            let wait_us = Float.max 0.0 ((j.j_started -. j.j_enqueued) *. 1e6) in
            T.span t.telemetry ~cat:"service"
              ~attrs:[ ("trace", j.j_trace); ("tenant", j.j_tenant) ]
              ~name:"queue.wait"
              ~start_us:(T.now_us t.telemetry -. wait_us)
              ~dur_us:wait_us ();
            Log.debug t.logger ~trace:j.j_trace
              ~fields:
                [ ("tenant", j.j_tenant); ("wait_s", Printf.sprintf "%.4f" (wait_us /. 1e6)) ]
              ~sub:"service.queue" "dispatched";
            set_depth_gauges t;
            Some j
        | None ->
            Condition.wait t.cond t.mu;
            pick ()
      end
    in
    Mutex.lock t.mu;
    pick ()
  in
  match job with
  | None -> Mutex.unlock t.mu
  | Some j ->
      run_job t j;
      let abandoned = j.j_abandoned in
      Mutex.unlock t.mu;
      (* An abandoned job means the watchdog replaced this worker while
         it was wedged — exit so the pool size stays constant. *)
      if not abandoned then worker_loop t

(* The watchdog doubles as the service's clock: it expires queued
   deadlines, writes off wedged builds (spawning replacement workers),
   and broadcasts the condition every tick so timed waits ([await]
   bounds, [drain]) can exist at all — stdlib [Condition] has no timed
   wait. *)
let rec watchdog_loop t =
  Mutex.lock t.mu;
  let stop = t.stopping in
  if not stop then begin
    expire_deadlines t;
    (match t.watchdog_timeout_s with
    | Some limit ->
        let now = Unix.gettimeofday () in
        let wedged =
          Hashtbl.fold
            (fun _ j acc -> if now -. j.j_started > limit then j :: acc else acc)
            t.running []
        in
        List.iter
          (fun j ->
            abandon_running t j ~ran_s:(Unix.gettimeofday () -. j.j_started);
            t.pool <- t.pool @ [ Domain.spawn (fun () -> worker_loop t) ])
          wedged
    | None -> ());
    Condition.broadcast t.cond
  end;
  Mutex.unlock t.mu;
  if not stop then begin
    Unix.sleepf t.wd_tick_s;
    watchdog_loop t
  end

(* ---------- public API ---------- *)

let create ?cache ?cache_dir ?max_bytes ?quarantine ?fp ?(queue_workers = 2) ?(workers = 22)
    ?(jobs = 1) ?(pace = 0.0) ?(seed = 7) ?(default_quota = default_quota) ?(quotas = []) ?shed
    ?watchdog_timeout_s ?(watchdog_tick_s = 0.01) ?faults ?(telemetry = T.default)
    ?(logger = Log.default) () =
  let sv_cache =
    match (cache, cache_dir) with
    | Some _, Some _ -> invalid_arg "Service.create: pass ~cache or ~cache_dir, not both"
    | Some c, None -> c
    | None, Some dir -> Build.create_cache ~dir ?max_bytes ?quarantine ~telemetry ()
    | None, None -> Build.create_cache ~telemetry ()
  in
  let fp = match fp with Some fp -> fp | None -> Fp.u50 () in
  let t =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      sv_cache;
      ro_cache = Build.readonly_view sv_cache;
      fp;
      telemetry;
      logger;
      t_started = Unix.gettimeofday ();
      workers;
      jobs;
      pace;
      seed;
      queue_workers = max 1 queue_workers;
      shed;
      watchdog_timeout_s;
      wd_tick_s = watchdog_tick_s;
      faults;
      dq = default_quota;
      tenants = Hashtbl.create 16;
      pending = [];
      inflight = Hashtbl.create 64;
      running = Hashtbl.create 16;
      first_tenant = Hashtbl.create 64;
      next_id = 0;
      stopping = false;
      draining = false;
      pool = [];
      wd_domain = None;
      avg_build_s =
        (match shed with Some sp -> sp.sp_assumed_build_s | None -> 0.05);
      g_submitted = 0;
      g_completed = 0;
      g_failed = 0;
      g_rejected = 0;
      g_shed = 0;
      g_deadline = 0;
      g_lost = 0;
      g_wd_kills = 0;
      g_deduped = 0;
      g_cross = 0;
      g_latencies = [];
    }
  in
  List.iter
    (fun (name, quota) ->
      let tn = tenant_of t name in
      Hashtbl.replace t.tenants name { tn with tn_quota = quota })
    quotas;
  t.pool <- List.init t.queue_workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.wd_domain <- Some (Domain.spawn (fun () -> watchdog_loop t));
  t

let cache t = t.sv_cache

(* Fabric profiles live in the shared artifact cache under the same
   key the build dedups on, so a cross-tenant or warm-cache hit finds
   the profile of whichever run actually produced the artifact. *)
let profile_key g level = job_key g level
let find_profile t g level = Build.find_profile t.sv_cache ~key:(job_key g level)
let put_profile t g level doc = Build.put_profile t.sv_cache ~key:(job_key g level) doc

let submit t ~tenant ?(priority = 0) ?(level = Build.O1) ?deadline_ms ?trace_id g =
  let trace = match trace_id with Some id -> id | None -> Log.mint_trace_id () in
  (* The admission verdict is an instant on the request's trace —
     recorded for refusals too, so a shed or queue-full request still
     leaves a traceable mark. *)
  let verdict_instant name extra =
    T.instant t.telemetry ~cat:"service"
      ~attrs:([ ("trace", trace); ("tenant", tenant) ] @ extra)
      name
  in
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  let tn = tenant_of t tenant in
  if t.stopping || t.draining then begin
    tn.tn_rejected <- tn.tn_rejected + 1;
    t.g_rejected <- t.g_rejected + 1;
    bump t "rejected";
    verdict_instant "admission.reject" [ ("state", "DRAINING") ];
    Error (Draining (if t.stopping then "service is shutting down" else "service is draining"))
  end
  else begin
    let key = job_key g level in
    let mk () =
      t.next_id <- t.next_id + 1;
      let now = Unix.gettimeofday () in
      {
        j_id = t.next_id;
        j_tenant = tenant;
        j_priority = priority;
        j_graph = g;
        j_level = level;
        j_key = key;
        j_trace = trace;
        j_enqueued = now;
        j_deadline = Option.map (fun ms -> now +. (float_of_int ms /. 1000.0)) deadline_ms;
        j_started = 0.0;
        j_abandoned = false;
        j_state = Queued;
        j_followers = [];
      }
    in
    match Hashtbl.find_opt t.inflight key with
    | Some primary ->
        (* Identical request already queued or compiling: piggyback.
           The primary's deadline governs the build; a follower's own
           deadline still bounds its await. *)
        let j = mk () in
        primary.j_followers <- j :: primary.j_followers;
        tn.tn_submitted <- tn.tn_submitted + 1;
        t.g_submitted <- t.g_submitted + 1;
        bump t "submitted";
        verdict_instant "dedup.join" [ ("primary_trace", primary.j_trace) ];
        Log.debug t.logger ~trace
          ~fields:[ ("tenant", tenant); ("primary_trace", primary.j_trace) ]
          ~sub:"service.dedup" "joined in-flight build";
        Ok j
    | None ->
        if tn.tn_queued >= tn.tn_quota.max_queued then begin
          tn.tn_rejected <- tn.tn_rejected + 1;
          t.g_rejected <- t.g_rejected + 1;
          bump t "rejected";
          verdict_instant "admission.reject" [ ("state", "QUEUE_FULL") ];
          Log.warn t.logger ~trace
            ~fields:[ ("tenant", tenant); ("queued", string_of_int tn.tn_queued) ]
            ~sub:"service.queue" "queue full";
          Error (Queue_full { tenant; queued = tn.tn_queued; max_queued = tn.tn_quota.max_queued })
        end
        else begin
          let shed =
            match t.shed with
            | Some sp when priority < sp.sp_exempt_priority ->
                let est = queue_delay_estimate t ~priority in
                if est > sp.sp_max_delay_s then
                  Some
                    (Shed
                       {
                         retry_after_ms =
                           max 1 (int_of_float ((est -. sp.sp_max_delay_s) *. 1000.0));
                         reason =
                           Printf.sprintf "estimated queue delay %.2fs exceeds %.2fs budget" est
                             sp.sp_max_delay_s;
                       })
                else None
            | Some _ | None -> None
          in
          match shed with
          | Some rej ->
              t.g_shed <- t.g_shed + 1;
              bump t "shed";
              verdict_instant "admission.reject" [ ("state", "SHED") ];
              Log.warn t.logger ~trace
                ~fields:[ ("tenant", tenant) ]
                ~sub:"service.queue" (reject_message rej);
              Error rej
          | None ->
              let j = mk () in
              Hashtbl.replace t.inflight key j;
              if not (Hashtbl.mem t.first_tenant key) then Hashtbl.replace t.first_tenant key tenant;
              t.pending <- t.pending @ [ j ];
              tn.tn_queued <- tn.tn_queued + 1;
              tn.tn_submitted <- tn.tn_submitted + 1;
              t.g_submitted <- t.g_submitted + 1;
              bump t "submitted";
              verdict_instant "admission.admit" [];
              Log.debug t.logger ~trace
                ~fields:
                  [
                    ("tenant", tenant);
                    ("graph", g.Graph.graph_name);
                    ("level", Build.level_name level);
                  ]
                ~sub:"service.queue" "admitted";
              set_depth_gauges t;
              Condition.broadcast t.cond;
              Ok j
        end
  end

(* Slack past a job's own deadline before an un-timed await gives up:
   wide enough that the deadline machinery (which fires within a
   watchdog tick) always wins, so this bound only trips if the job was
   truly lost. *)
let await_grace_s = 30.0

let await ?timeout_s t (j : ticket) =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  let bound =
    match timeout_s with
    | Some s -> Some (Unix.gettimeofday () +. s)
    | None -> Option.map (fun d -> d +. await_grace_s) j.j_deadline
  in
  (* The watchdog broadcasts every tick, so this wait re-checks its
     bound at tick granularity — a deadline-aware wait built on an
     untimed Condition. *)
  let rec wait () =
    match j.j_state with
    | Finished r -> r
    | Queued | Running -> (
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

let draining t =
  Mutex.lock t.mu;
  let d = t.draining || t.stopping in
  Mutex.unlock t.mu;
  d

(* ---------- stats ---------- *)

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
  st_latencies : float list;
  st_tenants : tenant_stats list;
  st_store : Pld_engine.Store.stats option;
}

let stats t =
  Mutex.lock t.mu;
  let tenants =
    Hashtbl.fold
      (fun _ tn acc ->
        {
          ts_tenant = tn.tn_name;
          ts_submitted = tn.tn_submitted;
          ts_completed = tn.tn_completed;
          ts_failed = tn.tn_failed;
          ts_rejected = tn.tn_rejected;
          ts_deduped = tn.tn_deduped;
          ts_cross_hits = tn.tn_cross_hits;
          ts_store_writes = tn.tn_store_writes;
          ts_queued = tn.tn_queued;
          ts_in_flight = tn.tn_in_flight;
        }
        :: acc)
      t.tenants []
  in
  let st =
    {
      st_submitted = t.g_submitted;
      st_completed = t.g_completed;
      st_failed = t.g_failed;
      st_rejected = t.g_rejected;
      st_shed = t.g_shed;
      st_deadline_exceeded = t.g_deadline;
      st_lost = t.g_lost;
      st_watchdog_kills = t.g_wd_kills;
      st_deduped = t.g_deduped;
      st_cross_hits = t.g_cross;
      st_queue_depth = List.length t.pending;
      st_in_flight = Hashtbl.fold (fun _ tn acc -> acc + tn.tn_in_flight) t.tenants 0;
      st_latencies = List.rev t.g_latencies;
      st_tenants = List.sort (fun a b -> compare a.ts_tenant b.ts_tenant) tenants;
      st_store = Option.map Pld_engine.Store.stats (Build.cache_store t.sv_cache);
    }
  in
  Mutex.unlock t.mu;
  st

let percentile samples q =
  match samples with [] -> 0.0 | xs -> Pld_util.Stats.percentile (100.0 *. q) xs

let stats_json (s : stats) =
  let tenant_json ts =
    Json.Obj
      [
        ("tenant", Json.String ts.ts_tenant);
        ("submitted", Json.Int ts.ts_submitted);
        ("completed", Json.Int ts.ts_completed);
        ("failed", Json.Int ts.ts_failed);
        ("rejected", Json.Int ts.ts_rejected);
        ("deduped", Json.Int ts.ts_deduped);
        ("cross_tenant_hits", Json.Int ts.ts_cross_hits);
        ("store_writes", Json.Int ts.ts_store_writes);
        ("queued", Json.Int ts.ts_queued);
        ("in_flight", Json.Int ts.ts_in_flight);
      ]
  in
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
    [
      ("submitted", Json.Int s.st_submitted);
      ("completed", Json.Int s.st_completed);
      ("failed", Json.Int s.st_failed);
      ("rejected", Json.Int s.st_rejected);
      ("shed", Json.Int s.st_shed);
      ("deadline_exceeded", Json.Int s.st_deadline_exceeded);
      ("lost", Json.Int s.st_lost);
      ("watchdog_kills", Json.Int s.st_watchdog_kills);
      ("deduped", Json.Int s.st_deduped);
      ("cross_tenant_hits", Json.Int s.st_cross_hits);
      ("queue_depth", Json.Int s.st_queue_depth);
      ("in_flight", Json.Int s.st_in_flight);
      ("latency_p50_s", Json.Float (percentile s.st_latencies 0.50));
      ("latency_p95_s", Json.Float (percentile s.st_latencies 0.95));
      ("latency_p99_s", Json.Float (percentile s.st_latencies 0.99));
      ("tenants", Json.List (List.map tenant_json s.st_tenants));
      ("store", match s.st_store with Some ss -> store_json ss | None -> Json.Null);
    ]

(* ---------- live introspection (Status / Health admin verbs) ---------- *)

let status_json t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  let now = Unix.gettimeofday () in
  let tenant_json tn =
    let buckets = Quantile.buckets_of_counts ~edges:latency_edges ~counts:tn.tn_lat_counts in
    let count = Array.fold_left ( + ) 0 tn.tn_lat_counts in
    Json.Obj
      [
        ("tenant", Json.String tn.tn_name);
        ("queued", Json.Int tn.tn_queued);
        ("max_queued", Json.Int tn.tn_quota.max_queued);
        ("in_flight", Json.Int tn.tn_in_flight);
        ("max_in_flight", Json.Int tn.tn_quota.max_in_flight);
        ("submitted", Json.Int tn.tn_submitted);
        ("completed", Json.Int tn.tn_completed);
        ("failed", Json.Int tn.tn_failed);
        ("rejected", Json.Int tn.tn_rejected);
        ("deduped", Json.Int tn.tn_deduped);
        ( "latency",
          Json.Obj
            [
              ("count", Json.Int count);
              ("p50_s", Json.Float (Quantile.of_buckets buckets 0.50));
              ("p95_s", Json.Float (Quantile.of_buckets buckets 0.95));
              ("p99_s", Json.Float (Quantile.of_buckets buckets 0.99));
            ] );
      ]
  in
  let tenants =
    Hashtbl.fold (fun _ tn acc -> tn :: acc) t.tenants []
    |> List.sort (fun a b -> compare a.tn_name b.tn_name)
    |> List.map tenant_json
  in
  let builds =
    Hashtbl.fold (fun _ j acc -> j :: acc) t.running []
    |> List.sort (fun a b -> compare a.j_id b.j_id)
    |> List.map (fun j ->
           Json.Obj
             [
               ("id", Json.Int j.j_id);
               ("tenant", Json.String j.j_tenant);
               ("graph", Json.String j.j_graph.Graph.graph_name);
               ("level", Json.String (Build.level_name j.j_level));
               ("age_s", Json.Float (now -. j.j_started));
               ("trace", Json.String j.j_trace);
             ])
  in
  let state =
    if t.stopping then "stopping" else if t.draining then "draining" else "running"
  in
  Json.Obj
    [
      ("uptime_s", Json.Float (now -. t.t_started));
      ("state", Json.String state);
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int (List.length t.pending));
            ("in_flight", Json.Int (Hashtbl.length t.running));
            ("workers", Json.Int t.queue_workers);
            ("avg_build_s", Json.Float t.avg_build_s);
          ] );
      ( "counters",
        Json.Obj
          [
            ("submitted", Json.Int t.g_submitted);
            ("completed", Json.Int t.g_completed);
            ("failed", Json.Int t.g_failed);
            ("rejected", Json.Int t.g_rejected);
            ("shed", Json.Int t.g_shed);
            ("deadline_exceeded", Json.Int t.g_deadline);
            ("lost", Json.Int t.g_lost);
            ("watchdog_kills", Json.Int t.g_wd_kills);
            ("deduped", Json.Int t.g_deduped);
            ("cross_tenant_hits", Json.Int t.g_cross);
          ] );
      ("tenants", Json.List tenants);
      ("builds", Json.List builds);
    ]

let health_json t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  let state =
    if t.stopping then "stopping" else if t.draining then "draining" else "running"
  in
  Json.Obj
    [
      ("ok", Json.Bool (not (t.stopping || t.draining)));
      ("state", Json.String state);
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.t_started));
      ("queue_depth", Json.Int (List.length t.pending));
      ("in_flight", Json.Int (Hashtbl.length t.running));
    ]

let render_stats (s : stats) =
  let head =
    Printf.sprintf
      "service: %d submitted, %d completed (%d dedup, %d cross-tenant), %d failed, %d rejected, \
       %d shed, %d deadline-exceeded, %d lost (%d watchdog kills)"
      s.st_submitted s.st_completed s.st_deduped s.st_cross_hits s.st_failed s.st_rejected
      s.st_shed s.st_deadline_exceeded s.st_lost s.st_watchdog_kills
  in
  let lat =
    Printf.sprintf "latency s: p50 %.4f  p95 %.4f  p99 %.4f  (%d samples)"
      (percentile s.st_latencies 0.50) (percentile s.st_latencies 0.95)
      (percentile s.st_latencies 0.99)
      (List.length s.st_latencies)
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
  if not t.stopping then begin
    t.stopping <- true;
    Log.info t.logger
      ~fields:[ ("orphaned", string_of_int (List.length t.pending)) ]
      ~sub:"service" "shutting down";
    let orphaned = t.pending in
    t.pending <- [];
    List.iter (fun j -> fail_queued t j (Lost "service shut down before the job ran")) orphaned;
    Condition.broadcast t.cond;
    let pool = t.pool in
    t.pool <- [];
    let wd = t.wd_domain in
    t.wd_domain <- None;
    Mutex.unlock t.mu;
    List.iter Domain.join pool;
    Option.iter Domain.join wd
  end
  else Mutex.unlock t.mu

let drain ?(grace_s = 5.0) t =
  Mutex.lock t.mu;
  t.draining <- true;
  let deadline = Unix.gettimeofday () +. grace_s in
  let busy () = t.pending <> [] || Hashtbl.length t.running > 0 in
  (* Woken by job completions and by the watchdog tick, so the grace
     bound is re-checked at tick granularity. *)
  while (not t.stopping) && busy () && Unix.gettimeofday () < deadline do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu;
  shutdown t
