(** The compile service's policy core: admission, quotas, dedup,
    priority, deadlines, shedding, the watchdog's write-offs and drain,
    as one explicit state machine, [step : t -> now -> input -> effect
    list]. It performs no I/O, takes no lock and reads no clock: time,
    trace ids and build results arrive as inputs, and every transition
    reports what happened as effects. {!Service} is the threaded shell
    that guards the state, runs the builds and renders the effects.

    One ledger per tenant plus one global ledger hold every count, and
    [count] is their only writer, so issued requests are conserved:
    [submitted = completed + failed + deadline_exceeded + lost +
    queued + in_flight + following], per tenant and in total.

    No [.mli]: the interface is the types, which the shell renders and
    the property test inspects directly. *)

open Pld_ir
open Pld_core

(* The request vocabulary {!Service} re-exports. *)
module Terms = struct
  type quota = {
    max_in_flight : int;  (** concurrent running jobs per tenant *)
    max_queued : int;  (** admitted-but-not-running jobs per tenant *)
    cache_write_budget : int option;
        (** store writes the tenant may cause; once spent, its builds run
            against {!Build.readonly_view} (reads still shared). [None]
            is unlimited. *)
  }

  let default_quota = { max_in_flight = 4; max_queued = 64; cache_write_budget = None }

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

  (** Structured refusals and failures. Admission refusals ([Queue_full],
      [Shed], [Draining]) never become job states; terminal job errors
      ([Deadline_exceeded], [Lost], [Build_failed]) settle a job. *)
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
            an await bound expired *)
    | Build_failed of string  (** the compile itself raised *)

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

  (* The wire-state tag of each class. *)
  let reject_state = function
    | Queue_full _ -> "QUEUE_FULL"
    | Shed _ -> "SHED"
    | Deadline_exceeded _ -> "DEADLINE_EXCEEDED"
    | Draining _ -> "DRAINING"
    | Lost _ -> "LOST"
    | Build_failed _ -> "FAILED"

  (* A backoff hint for the transient classes ([Shed] carries its own
     estimate; [Queue_full]/[Draining] a nominal one); [None] for the
     terminal classes, which a retry cannot fix. *)
  let reject_retry_after_ms = function
    | Shed { retry_after_ms; _ } -> Some retry_after_ms
    | Queue_full _ | Draining _ -> Some 100
    | Deadline_exceeded _ | Lost _ | Build_failed _ -> None

  (** Overload shedding: refuse work whose estimated queue delay (pending
      jobs at or above its priority plus running builds, amortized over
      the worker pool at the EWMA build time) exceeds the budget. *)
  type shed_policy = {
    sp_max_delay_s : float;  (** estimated-delay budget *)
    sp_exempt_priority : int;  (** priority at or above this is never shed *)
    sp_assumed_build_s : float;  (** EWMA seed before any build finished *)
  }

  let default_shed_policy =
    { sp_max_delay_s = 30.0; sp_exempt_priority = 100; sp_assumed_build_s = 0.05 }
end

include Terms

type job_state = Queued | Running | Finished of (outcome, reject) result

type job = {
  j_id : int;  (** admission order *)
  j_tenant : string;
  j_priority : int;
  j_graph : Graph.t;
  j_level : Build.level;
  j_key : string;  (** dedup key: graph source and level *)
  j_trace : string;
  j_enqueued : float;
  j_deadline : float option;  (** absolute budget end *)
  j_primary : job option;  (** [Some p]: a dedup follower waiting on [p] *)
  mutable j_started : float;  (** dispatch time; 0.0 while queued *)
  mutable j_state : job_state;
  mutable j_followers : job list;  (** a live primary's followers, newest first *)
}

(* Counts and levels. The levels ([queued], [in_flight], [following])
   are the live terms of the conservation law. *)
type ledger = {
  mutable submitted : int;  (** admitted or joined *)
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;  (** queue-full and draining refusals *)
  mutable shed : int;  (** overload-shed refusals (not in [rejected]) *)
  mutable deadline_exceeded : int;
  mutable lost : int;
  mutable watchdog_kills : int;
  mutable late_returns : int;  (** written-off builds that came back *)
  mutable deduped : int;
  mutable cross_hits : int;
  mutable store_writes : int;
  mutable queued : int;  (** primaries waiting for a worker *)
  mutable in_flight : int;  (** primaries running *)
  mutable following : int;  (** dedup followers waiting on a live primary *)
}

let new_ledger () =
  {
    submitted = 0;
    completed = 0;
    failed = 0;
    rejected = 0;
    shed = 0;
    deadline_exceeded = 0;
    lost = 0;
    watchdog_kills = 0;
    late_returns = 0;
    deduped = 0;
    cross_hits = 0;
    store_writes = 0;
    queued = 0;
    in_flight = 0;
    following = 0;
  }

(* What [count] can count; each also bumps [service.<counter_name>]. *)
type counter =
  | Submitted
  | Completed
  | Failed
  | Rejected
  | Sheds
  | Expiries
  | Losses
  | Watchdog_kills
  | Late_returns
  | Dedup_hits
  | Cross_tenant_hits

let counter_name = function
  | Submitted -> "submitted"
  | Completed -> "completed"
  | Failed -> "failed"
  | Rejected -> "rejected"
  | Sheds -> "shed"
  | Expiries -> "deadline_exceeded"
  | Losses -> "lost"
  | Watchdog_kills -> "watchdog_kills"
  | Late_returns -> "watchdog_late_returns"
  | Dedup_hits -> "dedup_hits"
  | Cross_tenant_hits -> "cross_tenant_hits"

let bump l = function
  | Submitted -> l.submitted <- l.submitted + 1
  | Completed -> l.completed <- l.completed + 1
  | Failed -> l.failed <- l.failed + 1
  | Rejected -> l.rejected <- l.rejected + 1
  | Sheds -> l.shed <- l.shed + 1
  | Expiries -> l.deadline_exceeded <- l.deadline_exceeded + 1
  | Losses -> l.lost <- l.lost + 1
  | Watchdog_kills -> l.watchdog_kills <- l.watchdog_kills + 1
  | Late_returns -> l.late_returns <- l.late_returns + 1
  | Dedup_hits -> l.deduped <- l.deduped + 1
  | Cross_tenant_hits -> l.cross_hits <- l.cross_hits + 1

(* Shared edges keep tenants comparable and let the stats documents
   merge every tenant's counts into one distribution. *)
let latency_edges = [| 0.001; 0.003; 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0 |]

type tenant = {
  tn_name : string;
  tn_quota : quota;
  tn_ledger : ledger;
  tn_lat_counts : int array;  (** per bucket of {!latency_edges}, last is +inf *)
}

(* How a job settled: returned by its worker, failed from the queue
   (deadline expiry, shutdown orphan), or written off by the watchdog
   after [ran_s] seconds. *)
type cause = Built | Unqueued | Wedged of float

type effect =
  | Count of counter  (** a ledger count, in the order it was made *)
  | Admitted of job  (** a new primary entered the queue *)
  | Joined of job  (** a dedup follower attached to its [j_primary] *)
  | Refused of { tenant : string; trace : string; reject : reject }
  | Dispatched of { job : job; read_only : bool }
      (** hand [job] to a worker; [read_only] when its tenant's write
          budget is spent *)
  | Settled of { job : job; cause : cause }  (** [job.j_state] is now [Finished] *)
  | Abandoned of job  (** the watchdog wrote off a running build: replace its worker *)
  | Late of job  (** a written-off build returned; its worker should exit *)
  | Stopping of { orphaned : int }  (** shutdown began with this many jobs queued *)

type input =
  | Submit of {
      tenant : string;
      priority : int;
      graph : Graph.t;
      level : Build.level;
      trace : string;
      deadline_ms : int option;
    }
  | Dispatch  (** a worker is free: expire queued deadlines, then pick a job *)
  | Finish of { job : job; result : (Build.app, exn) result }  (** a worker returned *)
  | Tick  (** the watchdog's clock: expire deadlines and write off wedged builds *)
  | Drain  (** refuse new work from now on *)
  | Shutdown  (** stop, failing every queued job as {!Lost} *)

type t = {
  queue_workers : int;
  shed_policy : shed_policy option;
  watchdog_timeout_s : float option;
  default_quota : quota;
  tenants : (string, tenant) Hashtbl.t;
  total : ledger;
  mutable pending : job list;  (* admission order, oldest first *)
  live : (string, job) Hashtbl.t;  (* key -> queued/running primary *)
  running : (int, job) Hashtbl.t;
  first_tenant : (string, string) Hashtbl.t;  (* key -> first submitter *)
  mutable next_id : int;
  mutable draining : bool;  (* refusing new work; set by [Drain] and [Shutdown] *)
  mutable stopping : bool;
  mutable avg_build_s : float;  (* EWMA of primary build wall time *)
  mutable out : effect list;  (* this step's effects, newest first *)
}

let tenant_of st name =
  match Hashtbl.find_opt st.tenants name with
  | Some tn -> tn
  | None ->
      let tn =
        {
          tn_name = name;
          tn_quota = st.default_quota;
          tn_ledger = new_ledger ();
          tn_lat_counts = Array.make (Array.length latency_edges + 1) 0;
        }
      in
      Hashtbl.replace st.tenants name tn;
      tn

(* [queue_workers] is the pool size the shed estimate amortizes over;
   [watchdog_timeout_s] is how long a build may run before [Tick]
   writes it off. *)
let create ~queue_workers ?(default_quota = default_quota) ?(quotas = []) ?shed
    ?watchdog_timeout_s () =
  let st =
    {
      queue_workers = max 1 queue_workers;
      shed_policy = shed;
      watchdog_timeout_s;
      default_quota;
      tenants = Hashtbl.create 16;
      total = new_ledger ();
      pending = [];
      live = Hashtbl.create 64;
      running = Hashtbl.create 16;
      first_tenant = Hashtbl.create 64;
      next_id = 0;
      draining = false;
      stopping = false;
      avg_build_s = (match shed with Some sp -> sp.sp_assumed_build_s | None -> 0.05);
      out = [];
    }
  in
  List.iter
    (fun (name, quota) ->
      Hashtbl.replace st.tenants name { (tenant_of st name) with tn_quota = quota })
    quotas;
  st

let job_key g level = Pld_util.Digest_lite.of_parts [ Graph.source g; Build.level_name level ]

let emit st e = st.out <- e :: st.out

(* The one ledger write: a tenant's record and the global one move
   together, and every count is also an effect the shell turns into
   the matching telemetry counter. *)
let count st tn c =
  bump tn.tn_ledger c;
  bump st.total c;
  emit st (Count c)

let shift st tn f =
  f tn.tn_ledger;
  f st.total

let observe_latency tn seconds =
  let n = Array.length latency_edges in
  let rec slot i = if i >= n then n else if seconds <= latency_edges.(i) then i else slot (i + 1) in
  let i = slot 0 in
  tn.tn_lat_counts.(i) <- tn.tn_lat_counts.(i) + 1

(* A follower's outcome is its primary's build seen from its own
   admission: no tool ran for it. *)
let follower_outcome ~now (primary : job) (f : job) o =
  let waited = now -. f.j_enqueued in
  {
    o with
    o_tenant = f.j_tenant;
    o_cache_hits = 0;
    o_recompiled = 0;
    o_store_writes = 0;
    o_deduped = true;
    o_cross_tenant = not (String.equal primary.j_tenant f.j_tenant);
    o_queue_seconds = waited;
    o_build_seconds = 0.0;
    o_latency_seconds = waited;
  }

(* The one terminal path: release whatever the job held (a queue slot,
   a worker, or a place behind its primary), count the result, record
   it, and settle the followers with the same verdict. A queued
   primary's caller has already taken it off [pending]. *)
let rec settle st ~now ~cause (j : job) result =
  let tn = tenant_of st j.j_tenant in
  (match (j.j_primary, j.j_state) with
  | Some _, _ -> shift st tn (fun l -> l.following <- l.following - 1)
  | None, Queued -> shift st tn (fun l -> l.queued <- l.queued - 1)
  | None, Running ->
      shift st tn (fun l -> l.in_flight <- l.in_flight - 1);
      Hashtbl.remove st.running j.j_id
  | None, Finished _ -> invalid_arg "Policy.settle: job already settled");
  if j.j_primary = None then Hashtbl.remove st.live j.j_key;
  (match result with
  | Ok o ->
      count st tn Completed;
      if o.o_deduped then count st tn Dedup_hits;
      if o.o_cross_tenant then count st tn Cross_tenant_hits;
      shift st tn (fun l -> l.store_writes <- l.store_writes + o.o_store_writes);
      observe_latency tn o.o_latency_seconds
  | Error (Build_failed _) -> count st tn Failed
  | Error (Deadline_exceeded _) -> count st tn Expiries
  | Error (Lost _) -> count st tn Losses
  | Error (Shed _ | Queue_full _ | Draining _) -> ());
  j.j_state <- Finished result;
  emit st (Settled { job = j; cause });
  let followers = List.rev j.j_followers in
  j.j_followers <- [];
  List.iter
    (fun f -> settle st ~now ~cause f (Result.map (follower_outcome ~now j f) result))
    followers

let overrun_ms ~now d = max 0 (int_of_float ((now -. d) *. 1000.0))

(* Expire queued jobs whose deadline has passed, in deadline order, so
   an earlier deadline never outlives a later one. *)
let expire st ~now =
  let expired, alive =
    List.partition (fun j -> match j.j_deadline with Some d -> now > d | None -> false) st.pending
  in
  if expired <> [] then begin
    st.pending <- alive;
    List.iter
      (fun j ->
        let d = Option.get j.j_deadline in
        settle st ~now ~cause:Unqueued j
          (Error (Deadline_exceeded { stage = "queued"; overrun_ms = overrun_ms ~now d })))
      (List.sort (fun a b -> compare a.j_deadline b.j_deadline) expired)
  end

(* Estimated seconds before a newly admitted job at [priority] would
   reach a worker: pending work at or above its priority plus the
   running builds, amortized over the pool at the EWMA build time. *)
let queue_delay_estimate st ~priority =
  let ahead =
    List.fold_left (fun acc p -> if p.j_priority >= priority then acc + 1 else acc) 0 st.pending
  in
  float_of_int (ahead + st.total.in_flight) *. st.avg_build_s /. float_of_int st.queue_workers

let shed_verdict st ~priority =
  match st.shed_policy with
  | Some sp when priority < sp.sp_exempt_priority ->
      let est = queue_delay_estimate st ~priority in
      if est > sp.sp_max_delay_s then
        Some
          (Shed
             {
               retry_after_ms = max 1 (int_of_float ((est -. sp.sp_max_delay_s) *. 1000.0));
               reason =
                 Printf.sprintf "estimated queue delay %.2fs exceeds %.2fs budget" est
                   sp.sp_max_delay_s;
             })
      else None
  | Some _ | None -> None

let submit st ~now ~tenant ~priority ~graph ~level ~trace ~deadline_ms =
  let tn = tenant_of st tenant in
  let refuse c reject =
    count st tn c;
    emit st (Refused { tenant; trace; reject })
  in
  let key = job_key graph level in
  let mk primary =
    st.next_id <- st.next_id + 1;
    {
      j_id = st.next_id;
      j_tenant = tenant;
      j_priority = priority;
      j_graph = graph;
      j_level = level;
      j_key = key;
      j_trace = trace;
      j_enqueued = now;
      j_deadline = Option.map (fun ms -> now +. (float_of_int ms /. 1000.0)) deadline_ms;
      j_primary = primary;
      j_started = 0.0;
      j_state = Queued;
      j_followers = [];
    }
  in
  if st.draining then
    refuse Rejected
      (Draining (if st.stopping then "service is shutting down" else "service is draining"))
  else
    match Hashtbl.find_opt st.live key with
    | Some primary ->
        (* Identical request already queued or compiling: piggyback.
           The primary's deadline governs the build. *)
        let j = mk (Some primary) in
        primary.j_followers <- j :: primary.j_followers;
        shift st tn (fun l -> l.following <- l.following + 1);
        count st tn Submitted;
        emit st (Joined j)
    | None -> (
        let quota = tn.tn_quota in
        if tn.tn_ledger.queued >= quota.max_queued then
          refuse Rejected
            (Queue_full { tenant; queued = tn.tn_ledger.queued; max_queued = quota.max_queued })
        else
          match shed_verdict st ~priority with
          | Some rej -> refuse Sheds rej
          | None ->
              let j = mk None in
              Hashtbl.replace st.live key j;
              if not (Hashtbl.mem st.first_tenant key) then
                Hashtbl.replace st.first_tenant key tenant;
              st.pending <- st.pending @ [ j ];
              shift st tn (fun l -> l.queued <- l.queued + 1);
              count st tn Submitted;
              emit st (Admitted j))

(* Highest priority first, FIFO within a priority, skipping tenants at
   their in-flight limit. *)
let select st =
  let eligible j =
    let tn = tenant_of st j.j_tenant in
    tn.tn_ledger.in_flight < tn.tn_quota.max_in_flight
  in
  List.fold_left
    (fun acc j ->
      if not (eligible j) then acc
      else
        match acc with
        | Some b when b.j_priority >= j.j_priority -> acc (* earlier admission wins ties *)
        | Some _ | None -> Some j)
    None st.pending

let dispatch st ~now =
  expire st ~now;
  match select st with
  | None -> ()
  | Some j ->
      st.pending <- List.filter (fun p -> p.j_id <> j.j_id) st.pending;
      j.j_state <- Running;
      j.j_started <- now;
      Hashtbl.replace st.running j.j_id j;
      let tn = tenant_of st j.j_tenant in
      shift st tn (fun l ->
          l.queued <- l.queued - 1;
          l.in_flight <- l.in_flight + 1);
      let read_only =
        match tn.tn_quota.cache_write_budget with
        | Some budget -> tn.tn_ledger.store_writes >= budget
        | None -> false
      in
      emit st (Dispatched { job = j; read_only })

let finish st ~now (j : job) result =
  match j.j_state with
  | Running ->
      let result =
        match result with
        | Ok (app : Build.app) ->
            let report = app.Build.report in
            let cross =
              report.Build.recompiled = 0
              &&
              match Hashtbl.find_opt st.first_tenant j.j_key with
              | Some first -> not (String.equal first j.j_tenant)
              | None -> false
            in
            (* The EWMA of build wall time feeds the shed estimate. *)
            st.avg_build_s <- (0.7 *. st.avg_build_s) +. (0.3 *. (now -. j.j_started));
            Ok
              {
                o_tenant = j.j_tenant;
                o_graph = j.j_graph.Graph.graph_name;
                o_level = j.j_level;
                o_cache_hits = report.Build.cache_hits;
                o_recompiled = report.Build.recompiled;
                o_store_writes = report.Build.stored;
                o_deduped = false;
                o_cross_tenant = cross;
                o_queue_seconds = j.j_started -. j.j_enqueued;
                o_build_seconds = now -. j.j_started;
                o_latency_seconds = now -. j.j_enqueued;
                o_app = app;
              }
        | Error Pld_engine.Executor.Deadline_passed ->
            let overrun_ms = match j.j_deadline with Some d -> overrun_ms ~now d | None -> 0 in
            Error (Deadline_exceeded { stage = "build"; overrun_ms })
        | Error e -> Error (Build_failed (Printexc.to_string e))
      in
      settle st ~now ~cause:Built j result
  | Queued | Finished _ ->
      (* The watchdog already wrote this build off and replaced its
         worker: the late result is dropped. *)
      count st (tenant_of st j.j_tenant) Late_returns;
      emit st (Late j)

(* The watchdog gave up on a running build: it fails as lost with its
   followers, and its worker is left to its hung call. *)
let abandon st ~now (j : job) =
  let ran_s = now -. j.j_started in
  count st (tenant_of st j.j_tenant) Watchdog_kills;
  emit st (Abandoned j);
  settle st ~now ~cause:(Wedged ran_s) j
    (Error (Lost (Printf.sprintf "watchdog: build wedged for %.2fs, worker quarantined" ran_s)))

let running st =
  Hashtbl.fold (fun _ j acc -> j :: acc) st.running []
  |> List.sort (fun a b -> compare a.j_id b.j_id)

let tick st ~now =
  expire st ~now;
  match st.watchdog_timeout_s with
  | Some limit ->
      List.iter (abandon st ~now) (List.filter (fun j -> now -. j.j_started > limit) (running st))
  | None -> ()

let shutdown st ~now =
  st.stopping <- true;
  st.draining <- true;
  let orphaned = st.pending in
  st.pending <- [];
  emit st (Stopping { orphaned = List.length orphaned });
  List.iter
    (fun j -> settle st ~now ~cause:Unqueued j (Error (Lost "service shut down before the job ran")))
    orphaned

(* Apply one input at time [now] and return what happened, in order.
   A stopped core ignores [Dispatch], [Tick] and [Shutdown]. *)
let step st ~now input =
  (match input with
  | Submit { tenant; priority; graph; level; trace; deadline_ms } ->
      submit st ~now ~tenant ~priority ~graph ~level ~trace ~deadline_ms
  | Finish { job; result } -> finish st ~now job result
  | Drain -> st.draining <- true
  | (Dispatch | Tick | Shutdown) when st.stopping -> ()
  | Dispatch -> dispatch st ~now
  | Tick -> tick st ~now
  | Shutdown -> shutdown st ~now);
  let out = List.rev st.out in
  st.out <- [];
  out

let tenants st =
  Hashtbl.fold (fun _ tn acc -> tn :: acc) st.tenants []
  |> List.sort (fun a b -> compare a.tn_name b.tn_name)

let state_name st = if st.stopping then "stopping" else if st.draining then "draining" else "running"
