(* pldd: the compile service daemon.

     pldd --socket pldd.sock --cache-dir /var/cache/pld &
     pldc --connect pldd.sock compile optical -O1

   One process owns the shared artifact store; any number of pldc
   clients (or raw newline-delimited-JSON speakers — see
   lib/service/protocol.mli) connect over a Unix-domain socket. Each
   connection is a thread submitting into the multi-tenant service
   queue; compiles run on the service's worker domains against the
   one shared cache, so tenant B's request for what tenant A already
   built is a hit, not a rebuild.

   The serving loop itself (socket claiming, drain-on-SIGTERM,
   connection error accounting) lives in lib/service/server.ml; this
   binary adds the Run request and the operational flags. *)

open Cmdliner
module B = Pld_core.Build
module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module Log = Pld_telemetry.Log
module Fault = Pld_faults.Fault
module Store = Pld_engine.Store
module Service = Pld_service.Service
module Server = Pld_service.Server
module Traffic = Pld_service.Traffic
module Protocol = Pld_service.Protocol
open Pld_rosetta

let hw = Pld_ir.Graph.Hw { page_hint = None }

(* The Compile and Profile handlers take graphs from the same bench
   namespace as Run ([Traffic.bench_of_name], shared with pldc). *)
let resolve_graph name = Result.map (fun b -> b.Suite.graph hw) (Traffic.bench_of_name name)

let handle_request server (e : Protocol.envelope) =
  let id = e.Protocol.rq_id in
  match e.Protocol.req with
  | Protocol.Run { bench; level; frames } -> (
      match (Traffic.bench_of_name bench, B.level_of_name level) with
      | Error msg, _ | _, Error msg -> Protocol.reply_error ~id msg
      | Ok b, Ok level -> (
          let g = b.Suite.graph hw in
          match
            Service.compile (Server.service server) ~tenant:e.Protocol.tenant
              ~priority:e.Protocol.priority ?deadline_ms:e.Protocol.deadline_ms
              ?trace_id:e.Protocol.trace ~level g
          with
          | Error rej -> Server.reply_of_reject ~id rej
          | Ok outcome -> (
              let module L = Pld_core.Loader in
              let module R = Pld_core.Runner in
              try
                let pmu = Pld_telemetry.Pmu.create () in
                let card = Pld_platform.Card.create ~pmu () in
                let dr = L.deploy card outcome.Service.o_app in
                (* The modeled runner executes one frame per request;
                   [frames] is accepted for protocol compatibility. *)
                ignore frames;
                let r = R.run ~pmu dr.L.app ~inputs:(b.Suite.workload ()) in
                (* Persist the run's fabric profile under the build's
                   own cache key — a later Profile request (any tenant,
                   cached or dedup'd build) reads this document. The
                   attribution report is embedded so clients need no
                   insight pass of their own. *)
                let doc =
                  Pld_insight.Bottleneck.profile_doc
                    (Pld_core.Fabric_profile.of_run ?trace:e.Protocol.trace
                       ~tenant:e.Protocol.tenant ~pmu outcome.Service.o_app r)
                in
                Service.put_profile (Server.service server) g level doc;
                Protocol.reply_ok ~id
                  (Json.Obj
                     [
                       ("compile", Service.outcome_json outcome);
                       ("link_seconds", Json.Float dr.L.seconds);
                       ("fmax_mhz", Json.Float r.R.perf.R.fmax_mhz);
                       ("ms_per_frame", Json.Float r.R.perf.R.ms_per_input);
                       ( "outputs",
                         Json.Obj
                           (List.map
                              (fun (chan, vs) -> (chan, Json.Int (List.length vs)))
                              r.R.outputs) );
                     ])
              with e -> Protocol.reply_error ~id (Printexc.to_string e))))
  | _ -> Server.handle server ~resolve:resolve_graph e

let serve socket cache_dir max_bytes scrub_on_start queue_workers jobs workers pace seed
    max_in_flight max_queued write_budget shed_max_delay watchdog_timeout drain_grace faults_arg
    metrics_out metrics_interval log_level log_json flight_out =
  (* The structured logger is the daemon's one mouth: humans get
     rendered lines on stderr, machines get JSONL via --log-json, and
     post-mortems get the ring via --flight-out. Configure it before
     anything can fail so even startup errors are structured. *)
  let logger = Log.default in
  (match Log.level_of_name log_level with
  | Some l -> Log.set_level logger l
  | None ->
      Printf.eprintf "pldd: unknown --log-level %S (want debug|info|warn|error)\n" log_level;
      exit 1);
  Log.set_text_sink logger (Some (fun line -> Printf.eprintf "pldd: %s\n%!" line));
  let die msg =
    Log.error logger ~sub:"daemon" msg;
    exit 1
  in
  (match log_json with
  | None -> ()
  | Some file -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 file with
      | oc ->
          Log.set_json_sink logger
            (Some
               (fun line ->
                 output_string oc line;
                 output_char oc '\n';
                 flush oc))
      | exception Sys_error msg -> die (Printf.sprintf "bad --log-json: %s" msg)));
  let quota =
    {
      Service.max_in_flight;
      max_queued;
      cache_write_budget = (if write_budget < 0 then None else Some write_budget);
    }
  in
  let faults =
    match faults_arg with
    | None -> None
    | Some spec -> (
        match Fault.parse spec with
        | Ok s -> Some (Fault.create ~seed s)
        | Error msg -> die (Printf.sprintf "bad --faults: %s" msg))
  in
  let shed =
    match shed_max_delay with
    | None -> None
    | Some s -> Some { Service.default_shed_policy with Service.sp_max_delay_s = s }
  in
  (* Open the store ourselves (in quarantine mode, so the header check
     at open and every failed find keep corruption evidence) so
     --scrub-on-start can run the full payload audit before the first
     request is admitted. *)
  let cache =
    match cache_dir with
    | None -> None
    | Some dir -> (
        try
          let c = B.create_cache ~dir ?max_bytes ~quarantine:true () in
          (match B.cache_store c with
          | Some st when scrub_on_start ->
              print_endline ("pldd: " ^ Store.render_scrub (Store.scrub st))
          | _ -> ());
          Some c
        with Store.Store_error msg -> die (Printf.sprintf "bad --cache-dir: %s" msg))
  in
  (* Armed after flag validation so a usage error cannot trip a dump;
     from here on, any Error-level event (a watchdog kill, a fatal
     serve failure) writes the last-N-events + metrics flight file. *)
  (match flight_out with
  | Some file -> Log.arm_flight logger ~telemetry:T.default ~file ()
  | None -> ());
  let svc =
    Service.create ?cache ~queue_workers ~jobs ~workers ~pace ~seed ~default_quota:quota ?shed
      ?watchdog_timeout_s:watchdog_timeout ?faults ~logger ()
  in
  let on_listen () =
    Printf.printf "pldd: listening on %s (%d queue workers%s)\n%!" socket (max 1 queue_workers)
      (match cache_dir with Some d -> ", store " ^ d | None -> ", in-memory cache")
  in
  let result =
    Server.serve ~socket ~drain_grace_s:drain_grace ~logger ?metrics_out
      ~metrics_interval_s:metrics_interval ~on_listen ~service:svc ~handler:handle_request ()
  in
  match result with
  | Ok () -> print_endline "pldd: stopped"
  | Error msg ->
      Service.shutdown svc;
      die msg

let () =
  let socket_arg =
    Arg.(
      value & opt string "pldd.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Back the shared cache with a persistent artifact store in $(docv).")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"N" ~doc:"LRU size budget of the persistent store, in bytes.")
  in
  let scrub_arg =
    Arg.(
      value & flag
      & info [ "scrub-on-start" ]
          ~doc:
            "Audit the persistent store before serving: verify every entry's header and payload \
             digest, quarantining failures into store.quarantine/.")
  in
  let queue_workers_arg =
    Arg.(
      value & opt int 2
      & info [ "queue-workers" ] ~docv:"N" ~doc:"Worker domains draining the service queue.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Executor domains per compile.")
  in
  let workers_arg =
    Arg.(
      value & opt int 22
      & info [ "workers" ] ~docv:"N" ~doc:"Modeled compile-cluster width (LPT makespan).")
  in
  let pace_arg =
    Arg.(
      value & opt float 0.0
      & info [ "pace" ] ~docv:"F" ~doc:"Wall seconds per modeled tool second (0 = flat out).")
  in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"N"
          ~doc:"P&R seed every job compiles with; fixed so equal requests share cache keys.")
  in
  let max_in_flight_arg =
    Arg.(
      value
      & opt int Service.default_quota.Service.max_in_flight
      & info [ "max-in-flight" ] ~docv:"N" ~doc:"Per-tenant concurrent running-job quota.")
  in
  let max_queued_arg =
    Arg.(
      value
      & opt int Service.default_quota.Service.max_queued
      & info [ "max-queued" ] ~docv:"N" ~doc:"Per-tenant admission limit on waiting jobs.")
  in
  let write_budget_arg =
    Arg.(
      value & opt int (-1)
      & info [ "write-budget" ] ~docv:"N"
          ~doc:
            "Per-tenant store-write budget; once spent, that tenant's builds stop persisting new \
             artifacts (reads stay shared). Negative = unlimited.")
  in
  let shed_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "shed-max-delay" ] ~docv:"SECONDS"
          ~doc:
            "Enable overload shedding: refuse low-priority work whose estimated queue delay \
             exceeds $(docv); the reply carries a retry_after_ms hint.")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watchdog-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Write off any build running longer than $(docv): the job fails as LOST, the wedged \
             worker is quarantined, and a replacement worker is spawned.")
  in
  let drain_grace_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:
            "On SIGTERM/SIGINT/shutdown, let queued and running builds finish for up to $(docv) \
             before stopping; meanwhile new submissions are refused as DRAINING.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault-injection spec (lib/faults syntax); hang=GRAPH@MS wedges that graph's compile \
             for MS milliseconds — the chaos harness's watchdog lever.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Keep a JSON metrics snapshot (incl. store and service stats) in $(docv): rewritten \
             atomically every --metrics-interval, on every 'metrics' request, and once more at \
             shutdown.")
  in
  let metrics_interval_arg =
    Arg.(
      value & opt float 5.0
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:"How often the --metrics-out snapshot is refreshed.")
  in
  let log_level_arg =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Structured-log threshold: debug, info, warn or error.")
  in
  let log_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"FILE"
          ~doc:
            "Append every structured log event to $(docv) as one JSON object per line (stderr \
             keeps the human rendering).")
  in
  let flight_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-out" ] ~docv:"FILE"
          ~doc:
            "Arm the flight recorder: on any error-level event (watchdog kill, fatal serve \
             failure), dump the recent log ring plus a metrics snapshot to $(docv).")
  in
  let doc = "PLD compile-as-a-service daemon (shared multi-tenant artifact store)" in
  let info = Cmd.info "pldd" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const serve $ socket_arg $ cache_dir_arg $ max_bytes_arg $ scrub_arg $ queue_workers_arg
      $ jobs_arg $ workers_arg $ pace_arg $ seed_arg $ max_in_flight_arg $ max_queued_arg
      $ write_budget_arg $ shed_arg $ watchdog_arg $ drain_grace_arg $ faults_arg
      $ metrics_out_arg $ metrics_interval_arg $ log_level_arg $ log_json_arg $ flight_out_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
