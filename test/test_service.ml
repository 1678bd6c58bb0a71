(* The service tier: compiles sharing one cache, the multi-tenant
   request queue (dedup, admission control, priority), and the paper's
   economic claim — a second tenant asking for an already-built graph
   is served without re-running HLS or P&R, which we assert by counting
   modeled flow spans in a private telemetry sink. *)

module Build = Pld_core.Build
module Loader = Pld_core.Loader
module Runner = Pld_core.Runner
module Service = Pld_service.Service
module Traffic = Pld_service.Traffic
module Client = Pld_service.Client
module Fault = Pld_faults.Fault
module T = Pld_telemetry.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected service error: %s" (Service.reject_message e)

let chain ops = Traffic.chain_graph ops

let faults spec =
  match Fault.parse spec with
  | Ok s -> Fault.create ~seed:7 s
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg

(* Poll until [f ()] holds; the service's own watchdog tick is 10 ms so
   2 ms keeps us well inside any deadline the test asserts on. *)
let wait_until ?(timeout_s = 5.0) f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else (
      Unix.sleepf 0.002;
      go ())
  in
  go ()

(* The ledger the chaos harness pins: every submitted request must end
   up in exactly one terminal or live bucket. *)
let check_conserved svc =
  let st = Service.stats svc in
  check_int "requests conserved" st.Service.st_submitted
    (st.Service.st_completed + st.Service.st_failed + st.Service.st_deadline_exceeded
   + st.Service.st_lost + st.Service.st_queue_depth + st.Service.st_in_flight)

(* Every recompiled job tiles one modeled track with its phase spans
   (hls, syn, pnr, ...) under cat "flow"; cache hits emit none. The
   span count is therefore a direct "did any tool re-run?" probe. *)
let flow_spans tele =
  List.length (List.filter (fun s -> String.equal s.T.cat "flow") (T.spans tele))

(* ---------- sessions: compile, link and run against one cache ---------- *)

let test_session_compile_link_run () =
  let cache = Build.create_cache () in
  let fp = Pld_fabric.Floorplan.u50 () in
  let ops = [ 0; 1 ] in
  let app = Build.compile ~cache fp (chain ops) ~level:Build.O1 in
  check_bool "first compile recompiles" true (app.Build.report.Build.recompiled > 0);
  let app2 = Build.compile ~cache fp (chain ops) ~level:Build.O1 in
  check_int "second compile recompiles nothing" 0 app2.Build.report.Build.recompiled;
  check_bool "second compile is link-time hits" true (app2.Build.report.Build.cache_hits > 0);
  (* A card deploys and runs the app end to end. *)
  let dr = Loader.deploy (Pld_platform.Card.create ()) app2 in
  let r = Runner.run dr.Loader.app ~inputs:(Traffic.chain_workload ops) in
  check_int "one frame out" (Traffic.chain_tokens ops)
    (List.length (List.assoc "cout" r.Runner.outputs))

let test_sessions_share_cache () =
  let cache = Build.create_cache () in
  let fp = Pld_fabric.Floorplan.u50 () in
  let g = chain [ 2; 3 ] in
  let a1 = Build.compile ~cache fp g ~level:Build.O1 in
  check_bool "first session builds" true (a1.Build.report.Build.recompiled > 0);
  let a2 = Build.compile ~cache fp g ~level:Build.O1 in
  check_int "second session recompiles nothing" 0 a2.Build.report.Build.recompiled;
  check_bool "second session hits the shared cache" true (a2.Build.report.Build.cache_hits > 0)

(* ---------- service: cache economics ---------- *)

let test_cross_tenant_served_without_reflow () =
  let tele = T.create () in
  let svc = Service.create ~queue_workers:1 ~telemetry:tele () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let g = chain [ 4; 5 ] in
  let a = ok_exn (Service.compile svc ~tenant:"alice" g) in
  check_bool "primary build recompiles" true (a.Service.o_recompiled > 0);
  check_bool "primary is not a cross-tenant hit" false a.Service.o_cross_tenant;
  let flows = flow_spans tele in
  check_bool "primary build ran modeled tool phases" true (flows > 0);
  (* Same graph, different tenant, after the first build finished: the
     shared store serves it — no new tool phases may appear. *)
  let b = ok_exn (Service.compile svc ~tenant:"bob" g) in
  check_bool "served from another tenant's work" true b.Service.o_cross_tenant;
  check_int "nothing recompiled" 0 b.Service.o_recompiled;
  check_bool "link-time hits" true (b.Service.o_cache_hits > 0);
  check_int "no new flow spans: HLS/P&R did not re-run" flows (flow_spans tele);
  let st = Service.stats svc in
  check_int "one cross-tenant hit" 1 st.Service.st_cross_hits;
  check_int "both completed" 2 st.Service.st_completed

let test_inflight_dedup () =
  (* pace 0.5 stretches the ~20 ms build to ~0.7 s of modeled tool
     time, so the second submit provably lands while the first is in
     flight. *)
  let svc = Service.create ~queue_workers:1 ~jobs:1 ~pace:0.5 () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let g = chain [ 6; 7 ] in
  let t1 = ok_exn (Service.submit svc ~tenant:"alice" g) in
  let t2 = ok_exn (Service.submit svc ~tenant:"bob" g) in
  let a = ok_exn (Service.await svc t1) in
  let b = ok_exn (Service.await svc t2) in
  check_bool "primary built" true (a.Service.o_recompiled > 0);
  check_bool "follower piggybacked" true b.Service.o_deduped;
  check_bool "follower is a cross-tenant hit" true b.Service.o_cross_tenant;
  check_int "follower recompiled nothing" 0 b.Service.o_recompiled;
  let st = Service.stats svc in
  check_int "one dedup" 1 st.Service.st_deduped;
  check_int "one cross-tenant hit" 1 st.Service.st_cross_hits

(* ---------- service: admission control and priority ---------- *)

let quota max_in_flight max_queued =
  { Service.max_in_flight; max_queued; cache_write_budget = None }

let test_admission_rejects_over_quota () =
  let svc =
    Service.create ~queue_workers:1 ~jobs:1 ~pace:0.5
      ~quotas:[ ("alice", quota 1 1) ]
      ()
  in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  (* One long build occupies the single worker; a one-deep queue then
     admits one more distinct graph and must reject the next. *)
  let submit ops = Service.submit svc ~tenant:"alice" (chain ops) in
  let blocker = ok_exn (submit [ 8; 9; 10 ]) in
  Unix.sleepf 0.05;
  let results = [ submit [ 11 ]; submit [ 12 ] ] in
  let rejected, admitted = List.partition Result.is_error results in
  check_int "queue bound enforced" 1 (List.length rejected);
  (match rejected with
  | [ Error (Service.Queue_full { tenant; queued; max_queued } as rej) ] ->
      check_bool "rejection names the tenant" true (String.equal tenant "alice");
      check_int "rejection reports the bound" 1 max_queued;
      check_bool "rejection reports a full queue" true (queued >= max_queued);
      check_bool "queue-full is retryable" true
        (Option.is_some (Service.reject_retry_after_ms rej))
  | [ Error rej ] -> Alcotest.failf "expected Queue_full, got %s" (Service.reject_message rej)
  | _ -> Alcotest.fail "expected one rejection");
  List.iter (fun t -> ignore (ok_exn (Service.await svc (ok_exn t)))) admitted;
  ignore (ok_exn (Service.await svc blocker));
  let st = Service.stats svc in
  check_int "rejection counted" 1 st.Service.st_rejected;
  check_int "admitted jobs completed" 2 st.Service.st_completed;
  match st.Service.st_tenants with
  | [ ts ] -> check_int "per-tenant rejection" 1 ts.Service.ts_rejected
  | _ -> Alcotest.fail "expected one tenant"

let test_priority_order () =
  let tele = T.create () in
  let svc = Service.create ~queue_workers:1 ~jobs:1 ~pace:0.5 ~telemetry:tele () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  (* While the worker is busy, enqueue a low-priority job first and a
     high-priority one second: the scheduler must dispatch the
     high-priority job first. Dispatch records the job's queue.wait
     span, so the order of those spans is the dispatch order. *)
  let blocker = ok_exn (Service.submit svc ~tenant:"t" (chain [ 13; 14; 15 ])) in
  check_bool "blocker dispatched" true
    (wait_until (fun () -> (Service.stats svc).Service.st_in_flight = 1));
  let low = ok_exn (Service.submit svc ~tenant:"t" ~priority:0 ~trace_id:"low" (chain [ 16 ])) in
  let high = ok_exn (Service.submit svc ~tenant:"t" ~priority:5 ~trace_id:"high" (chain [ 17 ])) in
  List.iter (fun t -> ignore (ok_exn (Service.await svc t))) [ blocker; low; high ];
  let dispatched =
    List.filter_map
      (fun (s : T.span) ->
        match List.assoc_opt "trace" s.T.attrs with
        | Some tr when String.equal s.T.name "queue.wait" && List.mem tr [ "low"; "high" ] ->
            Some tr
        | _ -> None)
      (T.spans tele)
  in
  Alcotest.(check (list string)) "high priority dispatched first" [ "high"; "low" ] dispatched

(* ---------- robustness: deadlines, watchdog, shed, drain ---------- *)

let test_deadline_expires_in_queue () =
  (* A wedged build (hang injection) holds the single worker; jobs
     queued behind it with a 50 ms deadline must expire in place, in
     the "queued" stage, without ever dispatching. *)
  let svc = Service.create ~queue_workers:1 ~jobs:1 ~faults:(faults "hang=svc-8@300") () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let blocker = ok_exn (Service.submit svc ~tenant:"t" (chain [ 8 ])) in
  check_bool "blocker dispatched" true
    (wait_until (fun () -> (Service.stats svc).Service.st_in_flight = 1));
  let doomed =
    List.map (fun op -> ok_exn (Service.submit svc ~tenant:"t" ~deadline_ms:50 (chain [ op ])))
      [ 0; 1 ]
  in
  List.iter
    (fun ticket ->
      match Service.await svc ticket with
      | Error (Service.Deadline_exceeded { stage; overrun_ms }) ->
          check_bool "expired while queued" true (String.equal stage "queued");
          check_bool "overrun is non-negative" true (overrun_ms >= 0)
      | Ok _ -> Alcotest.fail "expected a queued-deadline expiry"
      | Error rej ->
          Alcotest.failf "expected Deadline_exceeded, got %s" (Service.reject_message rej))
    doomed;
  ignore (ok_exn (Service.await svc blocker));
  let st = Service.stats svc in
  check_int "expiries counted" 2 st.Service.st_deadline_exceeded;
  check_conserved svc

let test_deadline_expires_mid_build () =
  (* The hang sits inside the build, so the deadline can only fire at
     a tool-phase boundary — the stage must say so. *)
  let svc = Service.create ~queue_workers:1 ~jobs:1 ~faults:(faults "hang=svc-7@250") () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  (match Service.compile svc ~tenant:"t" ~deadline_ms:80 (chain [ 7 ]) with
  | Error (Service.Deadline_exceeded { stage; _ }) ->
      check_bool "expired mid-build" true (String.equal stage "build")
  | Ok _ -> Alcotest.fail "expected a mid-build deadline expiry"
  | Error rej -> Alcotest.failf "expected Deadline_exceeded, got %s" (Service.reject_message rej));
  check_int "expiry counted" 1 (Service.stats svc).Service.st_deadline_exceeded;
  check_conserved svc

let test_watchdog_replaces_wedged_worker () =
  let svc =
    Service.create ~queue_workers:1 ~jobs:1 ~watchdog_timeout_s:0.12
      ~faults:(faults "hang=svc-9@500") ()
  in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  (match Service.compile svc ~tenant:"t" (chain [ 9 ]) with
  | Error (Service.Lost _) -> ()
  | Ok _ -> Alcotest.fail "expected the watchdog to write the build off"
  | Error rej -> Alcotest.failf "expected Lost, got %s" (Service.reject_message rej));
  (* The wedged worker was quarantined and replaced: the service must
     still build. *)
  let o = ok_exn (Service.compile svc ~tenant:"t" (chain [ 1 ])) in
  check_bool "replacement worker builds" true (o.Service.o_recompiled > 0);
  let st = Service.stats svc in
  check_int "one watchdog kill" 1 st.Service.st_watchdog_kills;
  check_int "one job lost" 1 st.Service.st_lost;
  check_conserved svc

(* Service lifecycles take their worker and watchdog domains from the
   process-wide pool and hand them back at shutdown: 50 create, compile
   and shutdown cycles run their builds on at most [queue_workers + 1]
   domains (the roles may swap between cycles), where spawning fresh
   domains each cycle would show up to 50. The executor's "graph" span
   sits on the domain that ran the build. *)
let test_lifecycles_reuse_domains () =
  let tele = T.create () in
  let queue_workers = 2 in
  for _ = 1 to 50 do
    let svc = Service.create ~queue_workers ~telemetry:tele () in
    Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
    ignore (ok_exn (Service.compile svc ~tenant:"t" (chain [ 3 ])))
  done;
  let domains =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : T.span) ->
           if s.T.cat = "engine" && s.T.name = "graph" then Some s.T.track else None)
         (T.spans tele))
  in
  check_bool
    (Printf.sprintf "%d build domains over 50 lifecycles" (List.length domains))
    true
    (domains <> [] && List.length domains <= queue_workers + 1)

let test_shed_refuses_with_hint () =
  let shed =
    { Service.sp_max_delay_s = 0.2; sp_exempt_priority = 50; sp_assumed_build_s = 1.0 }
  in
  let svc = Service.create ~queue_workers:1 ~jobs:1 ~shed ~faults:(faults "hang=svc-6@250") () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let blocker = ok_exn (Service.submit svc ~tenant:"t" (chain [ 6 ])) in
  check_bool "blocker dispatched" true
    (wait_until (fun () -> (Service.stats svc).Service.st_in_flight = 1));
  (* One assumed-1s build over one worker blows a 0.2 s budget. *)
  (match Service.submit svc ~tenant:"mob" (chain [ 10 ]) with
  | Error (Service.Shed { retry_after_ms; _ }) ->
      check_bool "hint is positive" true (retry_after_ms > 0)
  | Ok _ -> Alcotest.fail "expected the submission to be shed"
  | Error rej -> Alcotest.failf "expected Shed, got %s" (Service.reject_message rej));
  (* At or above the exempt priority, work is never shed. *)
  let vip = ok_exn (Service.submit svc ~tenant:"vip" ~priority:50 (chain [ 20 ])) in
  ignore (ok_exn (Service.await svc blocker));
  ignore (ok_exn (Service.await svc vip));
  let st = Service.stats svc in
  check_int "shed counted separately" 1 st.Service.st_shed;
  check_int "shed is not a rejection" 0 st.Service.st_rejected;
  check_conserved svc

let test_drain_refuses_honestly () =
  let svc = Service.create ~queue_workers:1 () in
  let o = ok_exn (Service.compile svc ~tenant:"t" (chain [ 2 ])) in
  check_bool "build before drain" true (o.Service.o_recompiled > 0);
  Service.drain ~grace_s:1.0 svc;
  check_bool "draining reported" true (Service.draining svc);
  (match Service.submit svc ~tenant:"t" (chain [ 3 ]) with
  | Error (Service.Draining _ as rej) ->
      check_bool "DRAINING on the wire" true
        (String.equal (Service.reject_state rej) "DRAINING")
  | Ok _ -> Alcotest.fail "expected a draining refusal"
  | Error rej -> Alcotest.failf "expected Draining, got %s" (Service.reject_message rej));
  Service.shutdown svc;
  check_conserved svc

(* ---------- client backoff ---------- *)

let test_backoff_deterministic () =
  let p = { Client.default_backoff with Client.b_seed = 42 } in
  let schedule b = List.init b.Client.b_attempts (Client.backoff_delay b) in
  (* Equal seeds give equal schedules — what makes a chaos run
     reproducible end to end. *)
  Alcotest.(check (list (float 1e-12))) "equal seeds, equal schedules" (schedule p) (schedule p);
  check_bool "seed changes the schedule" true
    (schedule p <> schedule { p with Client.b_seed = 43 });
  (* Every delay sits inside the jittered exponential envelope. *)
  List.iteri
    (fun attempt d ->
      let raw = min p.Client.b_cap_s (p.Client.b_base_s *. (2.0 ** float_of_int attempt)) in
      check_bool (Printf.sprintf "attempt %d below envelope" attempt) true (d <= raw +. 1e-12);
      check_bool (Printf.sprintf "attempt %d above jitter floor" attempt) true
        (d >= ((1.0 -. p.Client.b_jitter) *. raw) -. 1e-12))
    (schedule p);
  (* Growth is capped: far-out attempts never exceed the cap. *)
  check_bool "cap holds" true (Client.backoff_delay p 30 <= p.Client.b_cap_s +. 1e-12)

(* ---------- percentile ---------- *)

let test_percentile () =
  let samples = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50 interpolates" 50.5 (Service.percentile samples 0.50);
  Alcotest.(check (float 1e-9)) "p99 interpolates" 99.01 (Service.percentile samples 0.99);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Service.percentile samples 1.0);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Service.percentile [] 0.5);
  Alcotest.(check (float 1e-9)) "unsorted input" 3.0 (Service.percentile [ 3.0; 1.0; 2.0 ] 1.0)

(* ---------- observability: distributed traces, status, flight ---------- *)

module Server = Pld_service.Server
module Protocol = Pld_service.Protocol
module Log = Pld_telemetry.Log
module Json = Pld_telemetry.Json

let spans_with_trace tele id =
  List.filter (fun (s : T.span) -> List.assoc_opt "trace" s.T.attrs = Some id) (T.spans tele)

let named name spans = List.filter (fun (s : T.span) -> String.equal s.T.name name) spans

let resolve_chain name = Result.map Traffic.chain_graph (Traffic.chain_of_name name)

(* The tentpole, end to end over a real socket: one trace id minted
   client-side must stitch the client's retry attempts, the server's
   admission verdict and queue wait, and the modeled tool phases into
   one trace. The server comes up late on purpose, so the client
   provably retries before succeeding. *)
let test_trace_spans_client_retry_queue_and_build () =
  let tele = T.create () in
  let logger = Log.create () in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pld-e2e-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let svc = Service.create ~queue_workers:1 ~telemetry:tele ~logger () in
  let server =
    Thread.create
      (fun () ->
        Unix.sleepf 0.08;
        ignore
          (Server.serve ~socket ~install_signals:false ~telemetry:tele ~logger
             ~service:svc
             ~handler:(fun t e -> Server.handle t ~resolve:resolve_chain e)
             ()))
      ()
  in
  let trace = "0123456789abcdef" in
  let envelope =
    Protocol.envelope ~tenant:"alice" ~trace
      (Protocol.Compile { bench = "svc-2x3"; level = "O1" })
  in
  let backoff =
    { Client.default_backoff with Client.b_attempts = 60; b_base_s = 0.01; b_cap_s = 0.02 }
  in
  (match Client.rpc_retry ~backoff ~telemetry:tele ~socket envelope with
  | Ok r -> check_bool "remote compile succeeded" true r.Protocol.ok
  | Error msg -> Alcotest.failf "rpc_retry failed: %s" msg);
  (match Client.rpc ~socket (Protocol.envelope Protocol.Shutdown) with
  | Ok r -> check_bool "shutdown acknowledged" true r.Protocol.ok
  | Error msg -> Alcotest.failf "shutdown failed: %s" msg);
  Thread.join server;
  let traced = spans_with_trace tele trace in
  (* Client side: the attempts that failed against the dead socket and
     the one that succeeded all carry the id, as do the retry marks. *)
  check_bool "client made several attempts under one trace" true
    (List.length (named "rpc.attempt" traced) >= 2);
  check_bool "retry decisions are on the trace" true
    (List.length (named "rpc.retry" traced) >= 1);
  (* Server side: the admission verdict, the queue wait, the build
     umbrella and the modeled tool phases share the same id. *)
  check_int "one admission verdict" 1 (List.length (named "admission.admit" traced));
  check_int "one queue wait" 1 (List.length (named "queue.wait" traced));
  check_int "one request span" 1 (List.length (named "request" traced));
  check_bool "modeled tool phases carry the trace" true
    (List.exists (fun (s : T.span) -> String.equal s.T.cat "flow") traced);
  check_bool "request completed ok" true
    (List.exists
       (fun (s : T.span) -> List.assoc_opt "outcome" s.T.attrs = Some "ok")
       (named "request" traced))

(* The paper's economics, now provable per request: a dedup follower's
   trace contains its admission, join verdict and request span — and
   zero tool-phase or executor spans, because nothing was built for
   it. *)
let test_dedup_follower_trace_has_no_tool_spans () =
  let tele = T.create () in
  let svc = Service.create ~queue_workers:1 ~jobs:1 ~pace:0.5 ~telemetry:tele () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let g = chain [ 18; 19 ] in
  let ta = "aaaaaaaaaaaaaaaa" and tb = "bbbbbbbbbbbbbbbb" in
  let t1 = ok_exn (Service.submit svc ~tenant:"alice" ~trace_id:ta g) in
  let t2 = ok_exn (Service.submit svc ~tenant:"bob" ~trace_id:tb g) in
  ignore (ok_exn (Service.await svc t1));
  let b = ok_exn (Service.await svc t2) in
  check_bool "follower piggybacked" true b.Service.o_deduped;
  let a_spans = spans_with_trace tele ta and b_spans = spans_with_trace tele tb in
  check_bool "primary trace ran tool phases" true
    (List.exists (fun (s : T.span) -> String.equal s.T.cat "flow") a_spans);
  check_int "follower trace ran zero tool or executor spans" 0
    (List.length
       (List.filter
          (fun (s : T.span) -> String.equal s.T.cat "flow" || String.equal s.T.cat "engine")
          b_spans));
  check_bool "follower trace records the dedup join" true
    (List.exists
       (fun (s : T.span) ->
         String.equal s.T.name "dedup.join"
         && List.assoc_opt "primary_trace" s.T.attrs = Some ta)
       b_spans);
  check_int "follower still gets a request span" 1 (List.length (named "request" b_spans))

(* The hang injector wedges a build; the watchdog kill logs at Error
   level, which must trip the armed flight recorder into a parseable
   dump of the recent events plus the metrics snapshot. *)
let test_watchdog_kill_trips_flight_recorder () =
  let tele = T.create () in
  let logger = Log.create ~level:Log.Debug () in
  let file = Filename.temp_file "pld-flight" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Log.arm_flight logger ~telemetry:tele ~file;
      let svc =
        Service.create ~queue_workers:1 ~jobs:1 ~telemetry:tele ~logger
          ~watchdog_timeout_s:0.12 ~faults:(faults "hang=svc-9@500") ()
      in
      Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
      (match Service.compile svc ~tenant:"t" (chain [ 9 ]) with
      | Error (Service.Lost _) -> ()
      | Ok _ -> Alcotest.fail "expected the watchdog to write the build off"
      | Error rej -> Alcotest.failf "expected Lost, got %s" (Service.reject_message rej));
      let doc = Json.of_string (In_channel.with_open_bin file In_channel.input_all) in
      (match Json.member "events" doc with
      | Some (Json.List evs) ->
          let parsed = List.filter_map (fun j -> Result.to_option (Log.event_of_json j)) evs in
          check_int "every dumped event parses" (List.length evs) (List.length parsed);
          check_bool "the watchdog kill is in the dump" true
            (List.exists
               (fun e -> String.equal e.Log.ev_sub "service.watchdog" && e.Log.ev_level = Log.Error)
               parsed);
          check_bool "events carry the request trace" true
            (List.exists (fun e -> Option.is_some e.Log.ev_trace) parsed)
      | _ -> Alcotest.fail "flight dump has no events");
      match Json.member "metrics" doc with
      | Some m -> (
          match Json.member "counters" m with
          | Some (Json.Obj cs) ->
              check_bool "metrics snapshot has the kill counter" true
                (List.assoc_opt "service.watchdog_kills" cs = Some (Json.Int 1))
          | _ -> Alcotest.fail "flight metrics have no counters")
      | None -> Alcotest.fail "flight dump has no metrics")

(* The Status/Health admin documents: counts, per-tenant quantiles
   from bucket counts, and honest state transitions under drain. *)
let test_status_and_health_json () =
  let svc = Service.create ~queue_workers:1 () in
  ignore (ok_exn (Service.compile svc ~tenant:"alice" (chain [ 20; 21 ])));
  ignore (ok_exn (Service.compile svc ~tenant:"bob" (chain [ 20; 21 ])));
  let doc = Service.status_json svc in
  let member path j =
    match Json.member path j with Some v -> v | None -> Alcotest.failf "missing %s" path
  in
  (match member "state" doc with
  | Json.String s -> Alcotest.(check string) "running" "running" s
  | _ -> Alcotest.fail "state not a string");
  (match member "counters" doc with
  | Json.Obj cs ->
      check_bool "submitted counted" true (List.assoc_opt "submitted" cs = Some (Json.Int 2));
      check_bool "completed counted" true (List.assoc_opt "completed" cs = Some (Json.Int 2));
      check_bool "one cross-tenant hit" true
        (List.assoc_opt "cross_tenant_hits" cs = Some (Json.Int 1))
  | _ -> Alcotest.fail "counters not an object");
  (match member "tenants" doc with
  | Json.List tenants ->
      check_int "both tenants reported" 2 (List.length tenants);
      List.iter
        (fun tj ->
          match member "latency" tj with
          | Json.Obj lat ->
              check_bool "each tenant observed one latency" true
                (List.assoc_opt "count" lat = Some (Json.Int 1));
              (match List.assoc_opt "p50_s" lat with
              | Some (Json.Float p50) -> check_bool "p50 positive" true (p50 > 0.0)
              | _ -> Alcotest.fail "no p50_s")
          | _ -> Alcotest.fail "tenant latency not an object")
        tenants
  | _ -> Alcotest.fail "tenants not a list");
  (match member "builds" doc with
  | Json.List [] -> ()
  | Json.List _ -> Alcotest.fail "no build should be in flight"
  | _ -> Alcotest.fail "builds not a list");
  (* render_status turns the same document into the pldc status/top
     summary without raising. *)
  let lines = Protocol.render_status doc in
  check_bool "rendered summary is non-empty" true (List.length lines > 0);
  (match Json.member "ok" (Service.health_json svc) with
  | Some (Json.Bool ok) -> check_bool "healthy while running" true ok
  | _ -> Alcotest.fail "health has no ok");
  Service.drain ~grace_s:1.0 svc;
  (match Json.member "ok" (Service.health_json svc) with
  | Some (Json.Bool ok) -> check_bool "unhealthy once draining" false ok
  | _ -> Alcotest.fail "health has no ok after drain");
  Service.shutdown svc

(* ---------- fabric profiles in the shared store ---------- *)

(* The profile is keyed like the build it describes, so a dedup'd
   cross-tenant hit carries the primary run's profile: bob asking for
   alice's graph gets alice's measurements, trace id included. *)
let test_profile_travels_with_artifact () =
  let svc = Service.create ~queue_workers:1 () in
  let g = chain [ 30; 31 ] in
  ignore (ok_exn (Service.compile svc ~tenant:"alice" ~level:Build.O1 g));
  check_bool "no profile before any profiled run" true
    (Service.find_profile svc g Build.O1 = None);
  let doc =
    Json.Obj [ ("graph", Json.String "svc-chain"); ("trace", Json.String "alice-trace-1") ]
  in
  Service.put_profile svc g Build.O1 doc;
  (* A structurally identical graph from another tenant resolves to the
     same key — the artifact and its profile are one unit. *)
  let g' = chain [ 30; 31 ] in
  check_bool "identical graphs share the profile key" true
    (Service.find_profile svc g' Build.O1 <> None);
  let b = ok_exn (Service.compile svc ~tenant:"bob" ~level:Build.O1 g') in
  check_bool "bob's build is a cross-tenant hit" true b.Service.o_cross_tenant;
  (match Service.find_profile svc g' Build.O1 with
  | None -> Alcotest.fail "cross-tenant hit lost the primary's profile"
  | Some d ->
      Alcotest.(check string) "primary's document served verbatim" (Json.to_string doc)
        (Json.to_string d));
  (* Levels partition the store: no -O0 profile was ever written. *)
  check_bool "other level has no profile" true (Service.find_profile svc g Build.O0 = None);
  Service.shutdown svc

(* The [profile] wire verb end to end: absent before any run, then the
   persisted document with the caller's trace id echoed for
   correlation. *)
let test_profile_wire_verb () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pld-profile-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let svc = Service.create ~queue_workers:1 () in
  let server =
    Thread.create
      (fun () ->
        ignore
          (Server.serve ~socket ~install_signals:false ~service:svc
             ~handler:(fun t e -> Server.handle t ~resolve:resolve_chain e)
             ()))
      ()
  in
  let rpc req =
    let backoff =
      { Client.default_backoff with Client.b_attempts = 60; b_base_s = 0.01; b_cap_s = 0.02 }
    in
    match Client.rpc_retry ~backoff ~socket req with
    | Ok r -> r
    | Error msg -> Alcotest.failf "rpc failed: %s" msg
  in
  let ask = Protocol.Profile { bench = "svc-2x3"; level = "O1" } in
  let r = rpc (Protocol.envelope ~tenant:"alice" ask) in
  check_bool "absent profile still answers ok" true r.Protocol.ok;
  check_bool "found=false before any run" true
    (Json.member "found" r.Protocol.body = Some (Json.Bool false));
  check_bool "profile is null when absent" true
    (Json.member "profile" r.Protocol.body = Some Json.Null);
  (* A run elsewhere persists the document; the verb now serves it. *)
  let g =
    match resolve_chain "svc-2x3" with
    | Ok g -> g
    | Error m -> Alcotest.failf "resolve failed: %s" m
  in
  Service.put_profile svc g Pld_core.Build.O1 (Json.Obj [ ("marker", Json.Int 7) ]);
  let r = rpc (Protocol.envelope ~tenant:"bob" ~trace:"fedcba9876543210" ask) in
  check_bool "found=true once persisted" true
    (Json.member "found" r.Protocol.body = Some (Json.Bool true));
  (match Json.member "profile" r.Protocol.body with
  | Some (Json.Obj fields) ->
      check_bool "document served" true (List.assoc_opt "marker" fields = Some (Json.Int 7))
  | _ -> Alcotest.fail "profile body is not the stored object");
  check_bool "trace id echoed for correlation" true
    (Json.member "trace" r.Protocol.body = Some (Json.String "fedcba9876543210"));
  (* Unknown bench and bad level are hard errors, not empty results. *)
  let bad = rpc (Protocol.envelope (Protocol.Profile { bench = "no-such"; level = "O1" })) in
  check_bool "unknown bench refused" false bad.Protocol.ok;
  (match Client.rpc ~socket (Protocol.envelope Protocol.Shutdown) with
  | Ok r -> check_bool "shutdown acknowledged" true r.Protocol.ok
  | Error msg -> Alcotest.failf "shutdown failed: %s" msg);
  Thread.join server

(* ---------- the conservation law counts waiting followers ---------- *)

let test_conservation_counts_waiting_followers () =
  let svc = Service.create ~queue_workers:1 ~jobs:1 ~faults:(faults "hang=svc-8@300") () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let conserved what =
    let st = Service.stats svc in
    check_int what st.Service.st_submitted
      (st.Service.st_completed + st.Service.st_failed + st.Service.st_deadline_exceeded
     + st.Service.st_lost + st.Service.st_queue_depth + st.Service.st_in_flight
     + st.Service.st_following)
  in
  let primary = ok_exn (Service.submit svc ~tenant:"alice" (chain [ 8 ])) in
  check_bool "primary dispatched" true
    (wait_until (fun () -> (Service.stats svc).Service.st_in_flight = 1));
  let follower = ok_exn (Service.submit svc ~tenant:"bob" (chain [ 8 ])) in
  check_int "one follower waiting" 1 (Service.stats svc).Service.st_following;
  conserved "conserved while the follower waits";
  ignore (ok_exn (Service.await svc primary));
  check_bool "follower deduped" true (ok_exn (Service.await svc follower)).Service.o_deduped;
  check_int "no follower left waiting" 0 (Service.stats svc).Service.st_following;
  conserved "conserved once both settled"

(* ---------- the policy core under random input sequences ---------- *)

module Policy = Pld_service.Policy

type op =
  | Submit of { tenant : int; key : int; priority : int; deadline_ms : int option }
  | Dispatch
  | Finish of { pick : int; ok : bool }
  | Tick
  | Stall  (* advance past the watchdog limit, then tick *)
  | Drain
  | Shutdown

let show_op = function
  | Submit { tenant; key; priority; deadline_ms } ->
      Printf.sprintf "submit(t%d,k%d,p%d,%s)" tenant key priority
        (match deadline_ms with Some ms -> string_of_int ms | None -> "-")
  | Dispatch -> "dispatch"
  | Finish { pick; ok } -> Printf.sprintf "finish(%d,%b)" pick ok
  | Tick -> "tick"
  | Stall -> "stall"
  | Drain -> "drain"
  | Shutdown -> "shutdown"

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      ( 16,
        map
          (fun (tenant, key, priority, deadline_ms) -> Submit { tenant; key; priority; deadline_ms })
          (quad (int_bound 2) (int_bound 3) (int_bound 2)
             (frequency [ (3, return None); (1, map Option.some (int_range 5 60)) ])) );
      (10, return Dispatch);
      ( 8,
        map
          (fun (pick, ok) -> Finish { pick; ok })
          (pair (int_bound 7) (frequency [ (4, return true); (1, return false) ])) );
      (6, return Tick);
      (2, return Stall);
      (1, return Drain);
      (1, return Shutdown);
    ]

let core_quota = { Service.max_in_flight = 1; max_queued = 2; cache_write_budget = None }
let core_shed = { Service.sp_max_delay_s = 0.05; sp_exempt_priority = 2; sp_assumed_build_s = 0.1 }

(* One real build result, reused for every successful finish: the core
   only reads its report. *)
let core_app =
  lazy
    (Build.compile ~jobs:1 ~telemetry:(T.create ()) (Pld_fabric.Floorplan.u50 ()) (chain [ 0 ])
       ~level:Build.O1)

let core_graphs = Array.init 4 (fun k -> chain [ k ])

let run_core ops =
  let core =
    Policy.create ~queue_workers:2 ~default_quota:core_quota
      ~quotas:[ ("t1", { core_quota with Service.max_in_flight = 2 }) ]
      ~shed:core_shed ~watchdog_timeout_s:0.5 ()
  in
  let now = ref 0.0 and in_worker = ref [] and followers = ref [] and refusing = ref false in
  let fail fmt = Printf.ksprintf failwith fmt in
  let live (j : Policy.job) =
    match j.Policy.j_state with Policy.Queued | Policy.Running -> true | Policy.Finished _ -> false
  in
  let check_ledger who (l : Policy.ledger) =
    let accounted =
      l.Policy.completed + l.Policy.failed + l.Policy.deadline_exceeded + l.Policy.lost
      + l.Policy.queued + l.Policy.in_flight + l.Policy.following
    in
    if l.Policy.submitted <> accounted then
      fail "%s: submitted %d, accounted %d" who l.Policy.submitted accounted
  in
  let invariants () =
    let total = core.Policy.total and pending = core.Policy.pending in
    let running = Policy.running core in
    check_ledger "total" total;
    List.iter
      (fun (tn : Policy.tenant) ->
        let l = tn.Policy.tn_ledger and q = tn.Policy.tn_quota in
        check_ledger tn.Policy.tn_name l;
        if l.Policy.queued > q.Service.max_queued then fail "%s over max_queued" tn.Policy.tn_name;
        if l.Policy.in_flight > q.Service.max_in_flight then
          fail "%s over max_in_flight" tn.Policy.tn_name)
      (Policy.tenants core);
    if total.Policy.queued <> List.length pending then fail "queued level off the queue";
    if total.Policy.in_flight <> List.length running then fail "in_flight level off the workers";
    let primaries = pending @ running in
    let keys = List.sort_uniq compare (List.map (fun (j : Policy.job) -> j.Policy.j_key) primaries) in
    if List.length keys <> List.length primaries then fail "two live primaries share a key";
    let waiting = List.filter live !followers in
    if total.Policy.following <> List.length waiting then fail "following level off the followers";
    List.iter
      (fun (f : Policy.job) ->
        match f.Policy.j_primary with
        | Some p when live p && List.memq f p.Policy.j_followers -> ()
        | _ -> fail "follower %d waits on a settled primary" f.Policy.j_id)
      waiting
  in
  let step input = Policy.step core ~now:!now input in
  List.iter
    (fun (dt_ms, op) ->
      now := !now +. (float_of_int dt_ms /. 1000.0);
      (match op with
      | Submit { tenant; key; priority; deadline_ms } -> (
          let tenant = Printf.sprintf "t%d" tenant in
          let effects =
            step
              (Policy.Submit
                 {
                   tenant;
                   priority;
                   graph = core_graphs.(key);
                   level = Build.O1;
                   trace = "trace";
                   deadline_ms;
                 })
          in
          let verdicts =
            List.filter_map
              (function
                | Policy.Admitted j -> Some (Ok j)
                | Policy.Joined j ->
                    followers := j :: !followers;
                    Some (Ok j)
                | Policy.Refused { reject; _ } -> Some (Error reject)
                | _ -> None)
              effects
          in
          match verdicts with
          | [ Error (Service.Draining _) ] -> ()
          | [ _ ] when !refusing -> fail "submit admitted while draining"
          | [ Error (Service.Shed _) ] when priority >= core_shed.Service.sp_exempt_priority ->
              fail "exempt priority %d shed" priority
          | [ _ ] -> ()
          | _ -> fail "submit gave %d verdicts" (List.length verdicts))
      | Dispatch -> (
          let alive (j : Policy.job) =
            match j.Policy.j_deadline with Some d -> not (!now > d) | None -> true
          in
          let eligible (j : Policy.job) =
            List.exists
              (fun (tn : Policy.tenant) ->
                tn.Policy.tn_name = j.Policy.j_tenant
                && tn.Policy.tn_ledger.Policy.in_flight < tn.Policy.tn_quota.Service.max_in_flight)
              (Policy.tenants core)
          in
          let expected =
            if core.Policy.stopping then None
            else
              List.fold_left
                (fun best (j : Policy.job) ->
                  match best with
                  | Some (b : Policy.job) when b.Policy.j_priority >= j.Policy.j_priority -> best
                  | _ -> Some j)
                None
                (List.filter (fun j -> alive j && eligible j) (core.Policy.pending))
          in
          let picked =
            List.filter_map
              (function Policy.Dispatched { job; _ } -> Some job | _ -> None)
              (step Policy.Dispatch)
          in
          match (picked, expected) with
          | [], None -> ()
          | [ j ], Some e when j == e ->
              (match j.Policy.j_deadline with
              | Some d when !now > d -> fail "job %d dispatched after its deadline" j.Policy.j_id
              | _ -> ());
              in_worker := !in_worker @ [ j ]
          | [ j ], _ -> fail "dispatched job %d, not the best eligible one" j.Policy.j_id
          | [], Some e -> fail "job %d eligible but nothing dispatched" e.Policy.j_id
          | _ -> fail "one dispatch started several jobs")
      | Finish { pick; ok } -> (
          match !in_worker with
          | [] -> ()
          | js ->
              let j = List.nth js (pick mod List.length js) in
              in_worker := List.filter (fun x -> x != j) js;
              let result = if ok then Ok (Lazy.force core_app) else Error (Failure "injected") in
              let was_live = live j in
              let late =
                List.exists
                  (function Policy.Late _ -> true | _ -> false)
                  (step (Policy.Finish { job = j; result }))
              in
              if late = was_live then fail "late return misreported for job %d" j.Policy.j_id)
      | Tick -> ignore (step Policy.Tick)
      | Stall ->
          now := !now +. 1.0;
          ignore (step Policy.Tick)
      | Drain ->
          refusing := true;
          ignore (step Policy.Drain)
      | Shutdown ->
          refusing := true;
          ignore (step Policy.Shutdown));
      invariants ())
    ops;
  true

let prop_core_invariants =
  QCheck.Test.make ~name:"service core: invariants hold after every step" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat " " (List.map (fun (dt, op) -> Printf.sprintf "+%d %s" dt (show_op op)) ops))
       QCheck.Gen.(list_size (int_range 1 80) (pair (int_bound 12) gen_op)))
    run_core

(* ---------- the service's observable record, pinned ---------- *)

(* One scenario touching every lifecycle path — a cold build, a
   cross-tenant dedup follower, a queued deadline expiry behind a
   wedged blocker, a shed refusal and a watchdog kill — digested as the
   sorted (cat, name, attrs) of every span and instant, every counter
   value and every log event's (level, sub, msg, fields). What depends
   on timing or on earlier tests is left out: the executor's
   process-wide [run] sequence number, the [*_s] log fields, and digits
   in log messages (overrun milliseconds, delay estimates). The digest
   was recorded before the service was split into a policy core and a
   threaded shell; the split must leave the record unchanged. *)
let pinned_record_digest = "e99c03c57c15f03e1f0da8bbb6d20aff"

let service_record_digest () =
  let tele = T.create () in
  let logger = Log.create ~level:Log.Debug () in
  let shed =
    { Service.sp_max_delay_s = 0.2; sp_exempt_priority = 50; sp_assumed_build_s = 1.0 }
  in
  let svc =
    Service.create ~queue_workers:1 ~jobs:1 ~shed ~telemetry:tele ~logger
      ~faults:(faults "hang=svc-41@300,hang=svc-42@300") ()
  in
  (* Cold build. *)
  let cold = ok_exn (Service.compile svc ~tenant:"alice" ~trace_id:"pin-cold" (chain [ 40 ])) in
  check_bool "cold build recompiles" true (cold.Service.o_recompiled > 0);
  (* A second tenant joins a wedged primary. *)
  let primary = ok_exn (Service.submit svc ~tenant:"alice" ~trace_id:"pin-primary" (chain [ 41 ])) in
  let follower = ok_exn (Service.submit svc ~tenant:"bob" ~trace_id:"pin-follower" (chain [ 41 ])) in
  ignore (ok_exn (Service.await svc primary));
  check_bool "follower deduped" true (ok_exn (Service.await svc follower)).Service.o_deduped;
  (* A wedged blocker: an exempt job queued behind it expires in place,
     a low-priority one is shed. *)
  let blocker = ok_exn (Service.submit svc ~tenant:"alice" ~trace_id:"pin-blocker" (chain [ 42 ])) in
  check_bool "blocker dispatched" true
    (wait_until (fun () -> (Service.stats svc).Service.st_in_flight = 1));
  let doomed =
    ok_exn
      (Service.submit svc ~tenant:"alice" ~priority:50 ~deadline_ms:50 ~trace_id:"pin-doomed"
         (chain [ 43 ]))
  in
  (match Service.submit svc ~tenant:"mob" ~trace_id:"pin-shed" (chain [ 44 ]) with
  | Error (Service.Shed _) -> ()
  | _ -> Alcotest.fail "expected a shed refusal");
  (match Service.await svc doomed with
  | Error (Service.Deadline_exceeded { stage = "queued"; _ }) -> ()
  | _ -> Alcotest.fail "expected a queued deadline expiry");
  ignore (ok_exn (Service.await svc blocker));
  Service.shutdown svc;
  (* A watchdog kill, in a second service on the same sink and logger. *)
  let svc =
    Service.create ~queue_workers:1 ~jobs:1 ~telemetry:tele ~logger ~watchdog_timeout_s:0.12
      ~faults:(faults "hang=svc-45@500") ()
  in
  (match Service.compile svc ~tenant:"carol" ~trace_id:"pin-wedged" (chain [ 45 ]) with
  | Error (Service.Lost _) -> ()
  | _ -> Alcotest.fail "expected a watchdog kill");
  Service.shutdown svc;
  let attrs kvs =
    List.filter (fun (k, _) -> k <> "run") kvs
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
    |> String.concat ","
  in
  let spans =
    List.map
      (fun (s : T.span) -> Printf.sprintf "span %s %s %s" s.T.cat s.T.name (attrs s.T.attrs))
      (T.spans tele)
  in
  let counters =
    match Json.member "counters" (T.to_metrics_json tele) with
    | Some (Json.Obj cs) ->
        List.map (fun (k, v) -> Printf.sprintf "counter %s %s" k (Json.to_string v)) cs
    | _ -> Alcotest.fail "metrics have no counters"
  in
  let mask_digits =
    String.map (fun c -> if c >= '0' && c <= '9' then '#' else c)
  in
  let events =
    List.map
      (fun (e : Log.event) ->
        Printf.sprintf "log %s %s %s %s" (Log.level_name e.Log.ev_level) e.Log.ev_sub
          (mask_digits e.Log.ev_msg)
          (attrs
             (List.filter
                (fun (k, _) -> not (String.ends_with ~suffix:"_s" k))
                e.Log.ev_fields)))
      (Log.events logger)
  in
  let lines = List.sort compare (spans @ counters @ events) in
  (Digest.to_hex (Digest.string (String.concat "\n" lines)), lines)

let test_observable_record_pinned () =
  let digest, lines = service_record_digest () in
  if not (String.equal digest pinned_record_digest) then begin
    List.iter prerr_endline lines;
    Alcotest.failf "service record digest %s, pinned %s" digest pinned_record_digest
  end

(* ---------- pinned counts: Zipf traffic and the chaos scenarios ---------- *)

(* A fixed 60-session Zipf trace (seed 11) through a one-worker service
   on a fresh persistent store. One worker serializes the compiles, so
   the conservation counts are exact: every distinct artifact is built
   and written once however requests interleave. Dedup versus
   after-the-fact cache hits depends on drain timing and is not
   pinned. *)
let test_traffic_counts_pinned () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pld-traffic-%d" (Unix.getpid ()))
  in
  let clean () = if Sys.file_exists dir then Test_engine.rm_rf dir in
  clean ();
  let service = Service.create ~cache_dir:dir ~queue_workers:1 () in
  let opts =
    {
      Traffic.default_options with
      Traffic.sessions = 60;
      tenants = 4;
      pool = 12;
      max_chain = 3;
      zipf = 1.1;
      seed = 11;
    }
  in
  let s =
    Fun.protect
      ~finally:(fun () ->
        Service.shutdown service;
        clean ())
      (fun () -> Traffic.run ~service opts)
  in
  List.iter
    (fun (metric, want, got) -> check_int ("service -O1 " ^ metric) want got)
    [
      ("svc_completed", 60, s.Traffic.sm_completed);
      ("svc_failed", 0, s.Traffic.sm_failed);
      ("svc_distinct_graphs", 48, s.Traffic.sm_distinct_graphs);
      ("svc_recompiled", 26, s.Traffic.sm_recompiled);
      ("svc_store_writes", 26, s.Traffic.sm_store_writes);
    ]

(* The in-process chaos scenarios at seed 7: every invariant check
   holds and every failure-path counter (shed, deadlines, watchdog
   kills, lost, quarantined, dropped connections, client retries) is
   exact, so a change to the rejection taxonomy or the recovery
   machinery fails here. None of them forks, so they may run after
   domains exist. *)
let chaos_pins =
  [
    ("corrupt-store.quarantined", 3);
    ("corrupt-store.survivors", 3);
    ("conn-storm.client_retries", 2);
    ("conn-storm.conn_errors", 3);
    ("overload.deadline_exceeded", 4);
    ("overload.lost", 1);
    ("overload.shed", 5);
    ("overload.watchdog_kills", 1);
  ]

let test_chaos_counters_pinned () =
  let module Chaos = Pld_service.Chaos in
  (* The scenarios leave their scratch stores behind; keep them in a
     directory of this test's own. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pld-chaos-pin-%d" (Unix.getpid ()))
  in
  let clean () = if Sys.file_exists dir then Test_engine.rm_rf dir in
  let report =
    Fun.protect ~finally:clean (fun () ->
        Chaos.run ~seed:7 ~dir ~only:Chaos.deterministic_names ())
  in
  let failed =
    List.concat_map
      (fun (sr : Chaos.scenario_report) ->
        List.filter_map
          (fun (c : Chaos.check) ->
            if c.Chaos.ck_ok then None
            else
              Some
                (Printf.sprintf "%s: %s (%s)" sr.Chaos.sr_name c.Chaos.ck_name
                   c.Chaos.ck_detail))
          sr.Chaos.sr_checks)
      report.Chaos.r_scenarios
  in
  Alcotest.(check (list string)) "chaos seed7 failed checks" [] failed;
  let counters = Chaos.counters report in
  Alcotest.(check (list string)) "chaos seed7 counter names" (List.map fst chaos_pins)
    (List.map fst counters);
  List.iter
    (fun (name, want) -> check_int ("chaos seed7 " ^ name) want (List.assoc name counters))
    chaos_pins

let suite =
  [
    ("session: compile, cache, link, run, close", `Quick, test_session_compile_link_run);
    ("session: two sessions share one cache", `Quick, test_sessions_share_cache);
    ("service: cross-tenant hit re-runs no tool phase", `Quick, test_cross_tenant_served_without_reflow);
    ("service: identical in-flight requests dedup", `Slow, test_inflight_dedup);
    ("service: admission control rejects over quota", `Slow, test_admission_rejects_over_quota);
    ("service: higher priority dispatches first", `Slow, test_priority_order);
    ("service: queued deadline expires in place", `Slow, test_deadline_expires_in_queue);
    ("service: deadline fires at a tool-phase boundary", `Slow, test_deadline_expires_mid_build);
    ("service: watchdog writes off a wedged build", `Slow, test_watchdog_replaces_wedged_worker);
    ("service: overload shed carries a retry hint", `Slow, test_shed_refuses_with_hint);
    ("service: draining refusals are honest", `Slow, test_drain_refuses_honestly);
    ("client: backoff schedule is seeded and capped", `Quick, test_backoff_deterministic);
    ("service: percentile", `Quick, test_percentile);
    ("trace: one id spans retry, queue and build", `Slow, test_trace_spans_client_retry_queue_and_build);
    ("trace: dedup follower shows zero tool spans", `Slow, test_dedup_follower_trace_has_no_tool_spans);
    ("flight: watchdog kill dumps the recorder", `Slow, test_watchdog_kill_trips_flight_recorder);
    ("status: live introspection documents", `Quick, test_status_and_health_json);
    ("profile: travels with the shared artifact", `Quick, test_profile_travels_with_artifact);
    ("profile: wire verb serves persisted document", `Slow, test_profile_wire_verb);
    ("service: observable record pinned", `Slow, test_observable_record_pinned);
    ("service: conservation counts waiting followers", `Slow, test_conservation_counts_waiting_followers);
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 15 |])
      prop_core_invariants;
    ("service: lifecycles reuse pooled domains", `Slow, test_lifecycles_reuse_domains);
    ("service: fixed Zipf trace counts pinned", `Slow, test_traffic_counts_pinned);
    ("chaos: in-process scenarios pinned at seed 7", `Slow, test_chaos_counters_pinned);
  ]
