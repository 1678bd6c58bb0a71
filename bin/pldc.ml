(* pldc: the PLD compiler driver (§6's automated tool flow) as a CLI.

     pldc list                         benchmarks available
     pldc floorplan                    device pages (Tab. 1 / Fig. 8)
     pldc source optical               dump an application's C-like source
     pldc compile optical -O1          compile and report
     pldc run optical -O1              compile, deploy, link, run, check
     pldc analyze trace.json           profile + critical path of a saved trace
     pldc baseline save / check        record / enforce the exact baseline
     pldc service --sessions 1000      replay multi-tenant traffic in process
     pldc chaos --seed 7,11,23         crash-recovery scenarios *)

open Cmdliner
module B = Pld_core.Build
module R = Pld_core.Runner
module Protocol = Pld_service.Protocol
module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module Log = Pld_telemetry.Log
module Profile = Pld_insight.Profile
module FP = Pld_core.Fabric_profile
module Bottleneck = Pld_insight.Bottleneck
module Critical_path = Pld_insight.Critical_path
module Baseline = Pld_insight.Baseline
module Sentinel = Pld_insight.Sentinel
module Store = Pld_engine.Store
open Pld_rosetta

let fp = Pld_fabric.Floorplan.u50 ()
let hw = Pld_ir.Graph.Hw { page_hint = None }

(* CLI errors go through the structured logger (rendered to stderr, as
   before); machine consumers can tail the same events via the JSON
   sink if an embedder installs one. *)
let logger =
  let l = Log.default in
  Log.set_text_sink l (Some (fun line -> Printf.eprintf "pldc: %s\n%!" line));
  l

let die ?(code = 1) msg =
  Log.error logger ~sub:"cli" msg;
  exit code

let level_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (B.level_of_name s) in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (B.level_name l))

let bench_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Pld_service.Traffic.bench_of_name s) in
  Arg.conv (parse, fun fmt b -> Format.pp_print_string fmt b.Suite.name)

let bench_arg = Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")

let level_arg =
  Arg.(value & opt level_conv B.O1 & info [ "O"; "level" ] ~docv:"LEVEL" ~doc:"Optimization level: O0, O1, O3 or vitis.")

let workers_arg =
  Arg.(
    value & opt int 22
    & info [ "workers" ]
        ~doc:"Modeled compile-cluster width for the reported -O1 cluster (LPT) wall time.")

let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ]
        ~doc:"Executor worker domains running page compiles in parallel (1 = sequential).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist compiled artifacts to a content-addressed store in $(docv), so a rerun after \
           a one-operator edit recompiles exactly that operator.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print the cross-layer telemetry timeline (spans and instants) after the run.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the telemetry spans as Chrome trace-event JSON to $(docv) — loadable in \
           Perfetto (one process per layer, one per modeled clock).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics registry (counters, gauges, histograms) as JSON to $(docv).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ] ~doc:"Print the metrics registry after the run, one line per metric.")

let hot_arg =
  Arg.(
    value & flag
    & info [ "hot" ]
        ~doc:
          "Print the span hot list after the run: the flat self-time profile of the recorded \
           telemetry, per clock domain.")

let critical_path_arg =
  Arg.(
    value & flag
    & info [ "critical-path" ]
        ~doc:
          "Print the build's critical-path report after the run: the measured longest dependency \
           chain of the executor's job graph next to the modeled LPT cluster prediction, with \
           per-kind and per-phase divergence.")

(* Every command records into the process-wide sink; this drains it to
   whatever combination of human and machine views was asked for. *)
let telemetry_report ?(workers = 22) ~trace ~trace_out ~metrics_out ~profile ~hot ~critical_path ()
    =
  let tele = T.default in
  if trace then begin
    print_endline "-- telemetry timeline --";
    List.iter print_endline (Pld_core.Report.trace_lines tele)
  end;
  if profile then begin
    print_endline "-- metrics --";
    List.iter print_endline (T.render_metrics tele)
  end;
  if hot then begin
    print_endline "-- hot spans --";
    print_endline (Profile.render_hot (Profile.flat (T.spans tele)))
  end;
  if critical_path then begin
    print_endline "-- critical path --";
    match Critical_path.analyze ~workers (T.spans tele) with
    | Some r -> print_string (Critical_path.render r)
    | None -> print_endline "no executor run recorded (nothing compiled?)"
  end;
  Option.iter (fun file -> T.write_chrome tele ~file) trace_out;
  Option.iter (fun file -> T.write_metrics tele ~file) metrics_out

let pace_arg =
  Arg.(
    value & opt float 0.0
    & info [ "pace" ]
        ~doc:
          "Throttle each job to this many wall seconds per modeled backend-tool second, making \
           measured wall-clock reflect the modeled tool runs (0 = off).")

(* --inject-faults accepts the Fault.spec mini-language, e.g.
   "page=3,drop=0.01,load=5@2,hang=fft0@100000,job=op:fft0@1". *)
let fault_spec_conv =
  let parse s =
    match Pld_faults.Fault.parse s with Ok spec -> Ok spec | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Pld_faults.Fault.to_string s))

let faults_arg =
  Arg.(
    value
    & opt (some fault_spec_conv) None
    & info [ "inject-faults" ] ~docv:"SPEC"
        ~doc:
          "Inject faults: comma-separated page=N (defective page), drop=F / corrupt=F (NoC link \
           rates), load=PAGE@N (first N loads garble), hang=INST@CYCLES, trap=INST@CYCLES \
           (softcore control faults), job=ID@N (first N runs of a build job fail).")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Seed for the fault injector's RNG; the same seed reproduces the same fault trace.")

let max_retries_arg =
  Arg.(
    value & opt int 3
    & info [ "max-retries" ] ~docv:"K"
        ~doc:"Retry budget per page load (and per build job under --inject-faults).")

let injector_of spec seed = Option.map (fun s -> Pld_faults.Fault.create ~seed s) spec

(* ---------- daemon client mode ---------- *)

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Send the request to a running pldd daemon on this Unix-domain socket instead of \
           compiling in-process — the daemon's shared store serves cache hits across clients \
           and tenants.")

let tenant_arg =
  Arg.(
    value & opt string "default"
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:"Tenant to bill the daemon request to (quotas, stats, cache-write budget).")

let priority_arg =
  Arg.(
    value & opt int 0
    & info [ "priority" ] ~docv:"N"
        ~doc:"Daemon queue priority; higher is scheduled first, ties are FIFO.")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline for daemon mode: the request's time budget starts at admission; \
           an expired job fails with DEADLINE_EXCEEDED instead of occupying a worker.")

let retries_arg =
  Arg.(
    value
    & opt int Pld_service.Client.default_backoff.Pld_service.Client.b_attempts
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total attempts (including the first) for daemon mode, with seeded jittered exponential \
           backoff; transport failures and transient refusals (SHED, DRAINING, QUEUE_FULL) are \
           retried, honoring the server's retry_after_ms hint. 1 = no retry.")

(* Every remote request carries a trace id (minted here unless the
   caller brought one): the daemon stitches its admission verdict,
   queue wait and build phases to the same id, and the client's
   rpc.attempt spans carry it too — one id, end to end. *)
let with_trace envelope =
  match envelope.Protocol.trace with
  | Some _ -> envelope
  | None -> { envelope with Protocol.trace = Some (Log.mint_trace_id ()) }

let remote_rpc ~socket ~retries envelope =
  let module C = Pld_service.Client in
  let backoff = { C.default_backoff with C.b_attempts = max 1 retries } in
  match C.rpc_retry ~backoff ~socket (with_trace envelope) with
  | Error msg -> die msg
  | Ok reply -> reply

let remote_call ~socket ~retries envelope =
  let reply = remote_rpc ~socket ~retries envelope in
  print_endline (Json.pretty reply.Protocol.body);
  if not reply.Protocol.ok then exit 1

(* Admin verbs: one-shot request, fail loudly on an error reply. *)
let admin_call ~socket ~retries req =
  let reply = remote_rpc ~socket ~retries (Protocol.envelope req) in
  if not reply.Protocol.ok then die (Json.to_string reply.Protocol.body);
  reply.Protocol.body

(* ---------- daemon observability ---------- *)

let require_connect = function
  | Some s -> s
  | None -> die ~code:2 "--connect SOCKET is required for daemon commands"

let json_flag_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the raw JSON document instead of the rendered summary.")

let status_cmd =
  let doc = "Show a running daemon's live status: queue, counters, tenants, in-flight builds." in
  let run connect retries json =
    let socket = require_connect connect in
    let body = admin_call ~socket ~retries Protocol.Status in
    if json then print_endline (Json.pretty body)
    else List.iter print_endline (Protocol.render_status body)
  in
  Cmd.v (Cmd.info "status" ~doc) Term.(const run $ connect_arg $ retries_arg $ json_flag_arg)

let top_cmd =
  let doc = "Periodically refresh the daemon status summary (a tiny top(1) for pldd)." in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between refreshes.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N" ~doc:"Stop after $(docv) refreshes (0 = until interrupted).")
  in
  let fabric_arg =
    Arg.(
      value
      & opt (some bench_conv) None
      & info [ "fabric" ] ~docv:"BENCH"
          ~doc:
            "Append the per-build fabric view to each frame: the persisted fabric profile's \
             ranked back-pressure attribution for $(docv) at --level, as recorded by the run \
             that produced the cached artifact.")
  in
  let run connect retries interval count fabric level =
    let socket = require_connect connect in
    let fabric_lines () =
      match fabric with
      | None -> []
      | Some b -> (
          let name = b.Suite.name and lvl = Pld_core.Build.level_name level in
          let reply =
            remote_rpc ~socket ~retries
              (Protocol.envelope (Protocol.Profile { bench = name; level = lvl }))
          in
          let header = Printf.sprintf "fabric %s %s:" name lvl in
          if not reply.Protocol.ok then [ header; "  (profile request failed)" ]
          else
            let body = reply.Protocol.body in
            match Json.member "found" body with
            | Some (Json.Bool true) -> (
                match
                  FP.of_json (Option.value ~default:Json.Null (Json.member "profile" body))
                with
                | Ok p ->
                    header :: List.map (fun l -> "  " ^ l) (Bottleneck.render (Bottleneck.attribute p))
                | Error m -> [ header; "  (malformed profile: " ^ m ^ ")" ])
            | _ -> [ header; "  (no profile recorded yet — run the bench through pldd)" ])
    in
    let rec loop n =
      let body = admin_call ~socket ~retries Protocol.Status in
      (* Home-and-clear, so the summary repaints in place. *)
      if n > 0 || count <> 1 then print_string "\027[2J\027[H";
      List.iter print_endline (Protocol.render_status body);
      List.iter print_endline (fabric_lines ());
      flush stdout;
      if count = 0 || n + 1 < count then begin
        Unix.sleepf (Float.max 0.05 interval);
        loop (n + 1)
      end
    in
    loop 0
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const run $ connect_arg $ retries_arg $ interval_arg $ count_arg $ fabric_arg $ level_arg)

let metrics_cmd =
  let doc =
    "Fetch the daemon's metrics registry: Prometheus text exposition by default, the JSON \
     document with --json. Also refreshes the daemon's --metrics-out snapshot."
  in
  let run connect retries json =
    let socket = require_connect connect in
    let body = admin_call ~socket ~retries Protocol.Metrics in
    let field name = match body with Json.Obj fs -> List.assoc_opt name fs | _ -> None in
    if json then
      print_endline (Json.pretty (Option.value ~default:Json.Null (field "metrics")))
    else
      match field "prometheus" with
      | Some (Json.String text) -> print_string text
      | _ -> die "malformed metrics reply (no prometheus exposition)"
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const run $ connect_arg $ retries_arg $ json_flag_arg)

let health_cmd =
  let doc = "Probe daemon liveness; exits 1 when the daemon is draining or stopping." in
  let run connect retries =
    let socket = require_connect connect in
    let body = admin_call ~socket ~retries Protocol.Health in
    print_endline (Json.pretty body);
    let ok =
      match body with
      | Json.Obj fs -> ( match List.assoc_opt "ok" fs with Some (Json.Bool b) -> b | _ -> false)
      | _ -> false
    in
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "health" ~doc) Term.(const run $ connect_arg $ retries_arg)

let list_cmd =
  let doc = "List the bundled Rosetta applications." in
  let run () =
    List.iter
      (fun b ->
        let g = b.Suite.graph hw in
        Printf.printf "%-10s %-20s %d operators, %d channels\n" b.Suite.name b.Suite.paper_name
          (List.length g.Pld_ir.Graph.instances)
          (List.length g.Pld_ir.Graph.channels))
      Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let floorplan_cmd =
  let doc = "Print the device floorplan and page inventory." in
  let run () =
    List.iter
      (fun (ty, (cap : Pld_netlist.Netlist.res), n) ->
        Printf.printf "Type-%d: %d x { %d LUT, %d FF, %d BRAM18, %d DSP }\n" ty n
          cap.Pld_netlist.Netlist.luts cap.Pld_netlist.Netlist.ffs cap.Pld_netlist.Netlist.brams
          cap.Pld_netlist.Netlist.dsps)
      (Pld_fabric.Floorplan.type_summary fp);
    print_newline ();
    print_string (Pld_fabric.Floorplan.render fp)
  in
  Cmd.v (Cmd.info "floorplan" ~doc) Term.(const run $ const ())

let source_cmd =
  let doc = "Dump the application's generated C-like source." in
  let run b =
    let g = b.Suite.graph hw in
    print_endline (Pld_ir.Graph.source g);
    List.iter
      (fun (i : Pld_ir.Graph.instance) ->
        print_newline ();
        print_endline (Pld_ir.Op.source i.op))
      g.Pld_ir.Graph.instances
  in
  Cmd.v (Cmd.info "source" ~doc) Term.(const run $ bench_arg)

(* A bad --cache-dir (e.g. an existing file) is a user error, not an
   internal one. *)
let open_cache dir =
  try B.create_cache ?dir ()
  with Store.Store_error msg -> die (Printf.sprintf "bad --cache-dir: %s" msg)

(* ---------- incremental compile state ---------- *)

let incremental_from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "incremental-from" ] ~docv:"DIR"
        ~doc:
          "Persist the compiled app under $(docv) (one state file per benchmark and level) and, \
           when a previous state exists, seed delta P&R from it: unchanged cells keep their \
           placement and only nets touching moved cells are rerouted. Combine with --cache-dir \
           to also reuse unchanged artifacts outright.")

let touch_op_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "touch-op" ] ~docv:"INST"
        ~doc:
          "Apply a behavior-neutral one-operator edit (append a debug printf to instance \
           $(docv)) before compiling — the canonical edit of the incremental loop, used by the \
           CI smoke test to force the delta path.")

let pnr_seeds_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "pnr-seeds" ] ~docv:"SEEDS"
        ~doc:
          "Race these distinct annealing seeds on parallel domains for a cold monolithic \
           (-O3/vitis) compile and keep the best post-STA timing. Ignored on paged levels; \
           a loaded --incremental-from state wins over seeds.")

(* Incremental compile state: the whole app (pure data — graphs,
   netlists, placements, routes; no closures anywhere in it), one
   [pnrstate] entry per benchmark and level in a store at the
   --incremental-from directory. The store checks it like any artifact,
   so a stale or damaged state is a miss: a scratch compile, never an
   error. A private telemetry sink keeps its counters and gauges out of
   the --cache-dir store's. *)
let open_state dir =
  try Store.open_ ~telemetry:(T.create ()) ~dir ()
  with Store.Store_error msg -> die (Printf.sprintf "bad --incremental-from: %s" msg)

(* One parseable line per monolithic compile: what the delta path did
   (or why it could not), and the P&R seconds the CI smoke compares. *)
let incremental_summary (app : B.app) =
  match app.B.monolithic with
  | None -> ()
  | Some m ->
      let p = m.Pld_core.Flow.pnr3 in
      let pnr_seconds =
        p.Pld_pnr.Pnr.place_seconds +. p.Pld_pnr.Pnr.route_seconds +. p.Pld_pnr.Pnr.sta_seconds
      in
      (match p.Pld_pnr.Pnr.delta with
      | None ->
          Printf.printf "incremental: status=cold pnr_seconds=%.4f\n" pnr_seconds
      | Some d ->
          let status =
            match d.Pld_pnr.Pnr.fallback with
            | None -> "delta"
            | Some reason -> "fallback:" ^ reason
          in
          Printf.printf
            "incremental: status=%s cells_kept=%d cells_moved=%d nets_preserved=%d \
             nets_rerouted=%d pnr_seconds=%.4f\n"
            status d.Pld_pnr.Pnr.cells_kept d.Pld_pnr.Pnr.cells_moved
            d.Pld_pnr.Pnr.nets_preserved d.Pld_pnr.Pnr.nets_rerouted pnr_seconds);
      Printf.printf "incremental: pnr.delta_hits=%d pnr.delta_fallbacks=%d\n"
        (T.counter_value T.default "pnr.delta_hits")
        (T.counter_value T.default "pnr.delta_fallbacks")

let compile_cmd =
  let doc = "Compile an application at the given level and report phases/areas." in
  let run b level workers jobs cache_dir trace pace fault_spec fault_seed max_retries trace_out
      metrics_out profile hot critical_path connect tenant priority deadline_ms retries
      incremental_from touch_op pnr_seeds =
    match connect with
    | Some socket ->
        remote_call ~socket ~retries
          (Protocol.envelope ~tenant ~priority ?deadline_ms
             (Protocol.Compile { bench = b.Suite.name; level = B.level_name level }))
    | None ->
    let cache = open_cache cache_dir in
    let faults = injector_of fault_spec fault_seed in
    let graph =
      match touch_op with
      | None -> b.Suite.graph hw
      | Some inst -> (
          match Pld_ir.Graph.touch_op (b.Suite.graph hw) inst with
          | Some g -> g
          | None ->
              die ~code:2
                (Printf.sprintf "--touch-op: no instance %S in %s" inst b.Suite.name))
    in
    let state = Option.map open_state incremental_from in
    let state_key = Pld_util.Digest_lite.of_parts [ b.Suite.name; B.level_name level ] in
    let previous =
      Option.bind state (fun st -> (Store.find st ~kind:"pnrstate" ~key:state_key : B.app option))
    in
    let app =
      B.compile ~cache ~workers ~jobs ~pace ?faults ~max_retries ?previous ~pnr_seeds fp graph
        ~level
    in
    Option.iter (fun st -> Store.put st ~kind:"pnrstate" ~key:state_key app) state;
    print_endline (Pld_core.Report.compile_summary app);
    Printf.printf "  cache: %s\n" (Pld_core.Report.cache_summary app.B.report);
    List.iter (fun (inst, page) -> Printf.printf "  %-16s -> page %d\n" inst page) app.B.assignment;
    List.iter (fun l -> Printf.printf "  %s\n" l) (Pld_core.Report.build_recovery_lines app.B.report);
    (match app.B.monolithic with
    | Some m -> print_endline (Pld_pnr.Pnr.report m.Pld_core.Flow.pnr3)
    | None -> ());
    incremental_summary app;
    print_endline (Pld_core.Loader.describe_artifacts app);
    telemetry_report ~workers ~trace ~trace_out ~metrics_out ~profile ~hot ~critical_path ()
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const run $ bench_arg $ level_arg $ workers_arg $ jobs_arg $ cache_dir_arg $ trace_arg
      $ pace_arg $ faults_arg $ fault_seed_arg $ max_retries_arg $ trace_out_arg $ metrics_out_arg
      $ profile_arg $ hot_arg $ critical_path_arg $ connect_arg $ tenant_arg $ priority_arg
      $ deadline_arg $ retries_arg $ incremental_from_arg $ touch_op_arg $ pnr_seeds_arg)

let run_cmd =
  let doc = "Compile, deploy to the card, link, execute a frame, and validate." in
  let module L = Pld_core.Loader in
  let run b level workers jobs cache_dir fault_spec fault_seed max_retries trace trace_out
      metrics_out profile hot critical_path connect tenant priority deadline_ms retries =
    match connect with
    | Some socket ->
        remote_call ~socket ~retries
          (Protocol.envelope ~tenant ~priority ?deadline_ms
             (Protocol.Run { bench = b.Suite.name; level = B.level_name level; frames = 8 }))
    | None ->
    let cache = open_cache cache_dir in
    let graph = b.Suite.graph hw in
    let faults = injector_of fault_spec fault_seed in
    let app = B.compile ~cache ~workers ~jobs ?faults ~max_retries fp graph ~level in
    let dr =
      try L.deploy ?faults ~max_retries (Pld_platform.Card.create ?faults ()) app
      with L.Deploy_failed m -> die (Printf.sprintf "deploy failed: %s" m)
    in
    let inputs = b.Suite.workload () in
    let r =
      try R.run ?faults dr.L.app ~inputs with
      | R.Stalled d -> die (R.describe_stall d)
      | R.Softcore_trap (inst, tr) ->
          die (Printf.sprintf "softcore %s trapped: %s" inst (Pld_riscv.Cpu.describe_trap tr))
    in
    Printf.printf "%s %s: load+link %.4fs, %.0f MHz, %.4f ms/frame (bottleneck %s)\n" b.Suite.name
      (B.level_name level) dr.L.seconds r.R.perf.R.fmax_mhz r.R.perf.R.ms_per_input
      r.R.perf.R.bottleneck;
    List.iteri
      (fun k (inst, line) -> if k < 5 then Printf.printf "  [softcore %s] %s\n" inst line)
      r.R.printed;
    (match faults with
    | None -> ()
    | Some _ ->
        List.iter (fun l -> Printf.printf "  %s\n" l) (Pld_core.Report.build_recovery_lines app.B.report);
        List.iter print_endline (Pld_core.Report.recovery_lines dr);
        (* Honest degraded-mode reporting: rerun the whole flow
           fault-free — on a fault-free card, against the same cache —
           and put the two perf numbers side by side. *)
        let napp = B.compile ~cache ~workers ~jobs fp graph ~level in
        let ndr = L.deploy (Pld_platform.Card.create ()) napp in
        let nr = R.run ndr.L.app ~inputs in
        List.iter print_endline (Pld_core.Report.degraded_perf_lines ~nominal:nr ~actual:r);
        Printf.printf "outputs bit-identical to fault-free run: %b\n" (r.R.outputs = nr.R.outputs));
    let ok = b.Suite.check ~inputs r.R.outputs in
    Printf.printf "output check vs independent reference: %b\n" ok;
    telemetry_report ~workers ~trace ~trace_out ~metrics_out ~profile ~hot ~critical_path ();
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ bench_arg $ level_arg $ workers_arg $ jobs_arg $ cache_dir_arg $ faults_arg
      $ fault_seed_arg $ max_retries_arg $ trace_arg $ trace_out_arg $ metrics_out_arg
      $ profile_arg $ hot_arg $ critical_path_arg $ connect_arg $ tenant_arg $ priority_arg
      $ deadline_arg $ retries_arg)

(* ---------- fabric profiling ---------- *)

let render_fabric ~fabric profile =
  let bk = Bottleneck.attribute profile in
  if fabric then print_string (FP.render_heatmap profile fp);
  List.iter print_endline (Bottleneck.render bk)

let profile_cmd =
  let doc =
    "Run a benchmark under the fabric PMU and report where the runtime cycles went: firing \
     heatmap, stall splits, link traffic, and the ranked back-pressure attribution naming the \
     rate-limiting operator."
  in
  let module L = Pld_core.Loader in
  let fabric_flag =
    Arg.(
      value & flag
      & info [ "fabric" ]
          ~doc:
            "Also render the fabric heatmap: the floorplan grid shaded by per-page firing \
             activity, a per-page legend with stall fractions, and per-link utilization bars.")
  in
  let run b level workers jobs cache_dir fabric json connect tenant priority deadline_ms retries =
    match connect with
    | Some socket -> (
        (* Remote: read the profile persisted next to the daemon's
           cached artifact — the document the primary run stored,
           whichever tenant's build that was. *)
        let reply =
          remote_rpc ~socket ~retries
            (Protocol.envelope ~tenant ~priority ?deadline_ms
               (Protocol.Profile { bench = b.Suite.name; level = B.level_name level }))
        in
        if not reply.Protocol.ok then die (Json.to_string reply.Protocol.body);
        let body = reply.Protocol.body in
        (match Json.member "found" body with
        | Some (Json.Bool true) -> ()
        | _ ->
            die
              (Printf.sprintf
                 "no fabric profile for %s at %s yet — run it through the daemon first (pldc run \
                  --connect %s %s)"
                 b.Suite.name (B.level_name level) socket b.Suite.name));
        let doc = Option.value ~default:Json.Null (Json.member "profile" body) in
        if json then print_endline (Json.pretty doc)
        else
          match FP.of_json doc with
          | Error m -> die (Printf.sprintf "malformed profile document: %s" m)
          | Ok profile -> render_fabric ~fabric profile)
    | None ->
        let cache = open_cache cache_dir in
        let app = B.compile ~cache ~workers ~jobs fp (b.Suite.graph hw) ~level in
        let dr =
          try L.deploy (Pld_platform.Card.create ()) app
          with L.Deploy_failed m -> die (Printf.sprintf "deploy failed: %s" m)
        in
        let pmu = Pld_telemetry.Pmu.create () in
        let r =
          try R.run ~pmu dr.L.app ~inputs:(b.Suite.workload ()) with
          | R.Stalled d -> die (R.describe_stall d)
          | R.Softcore_trap (inst, tr) ->
              die (Printf.sprintf "softcore %s trapped: %s" inst (Pld_riscv.Cpu.describe_trap tr))
        in
        let profile = FP.of_run ~pmu app r in
        if json then print_endline (Json.pretty (Bottleneck.profile_doc profile))
        else render_fabric ~fabric profile
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ bench_arg $ level_arg $ workers_arg $ jobs_arg $ cache_dir_arg $ fabric_flag
      $ json_flag_arg $ connect_arg $ tenant_arg $ priority_arg $ deadline_arg $ retries_arg)

(* ---------- store maintenance ---------- *)

let cache_cmd =
  let scrub_cmd =
    let doc =
      "Audit a persistent artifact store: verify every entry's header and payload digest, \
       quarantine failures into store.quarantine/, and rewrite the index. Exits 1 if anything \
       was quarantined."
    in
    let dir_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "cache-dir" ] ~docv:"DIR" ~doc:"The store directory to scrub.")
    in
    let run dir =
      match Store.open_ ~quarantine:true ~dir () with
      | exception Store.Store_error msg -> die ~code:2 (Printf.sprintf "bad --cache-dir: %s" msg)
      | st ->
          let r = Store.scrub st in
          print_endline (Store.render_scrub r);
          if r.Store.sc_quarantined > 0 then exit 1
    in
    Cmd.v (Cmd.info "scrub" ~doc) Term.(const run $ dir_arg)
  in
  let doc = "Operate on a persistent artifact store." in
  Cmd.group (Cmd.info "cache" ~doc) [ scrub_cmd ]

(* ---------- trace analysis ---------- *)

let analyze_cmd =
  let doc = "Profile a Chrome trace exported with --trace-out: hot spans and critical path." in
  let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE") in
  let top_arg =
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot list.")
  in
  let tree_arg =
    Arg.(
      value & flag
      & info [ "tree" ] ~doc:"Also print the top-down (call-tree) profile of the trace.")
  in
  let run file top workers tree =
    let spans =
      try T.read_chrome ~file with
      | Sys_error m -> die (Printf.sprintf "cannot read trace: %s" m)
      | Json.Parse_error m -> die (Printf.sprintf "%s is not valid JSON: %s" file m)
      | T.Malformed_trace m -> die (Printf.sprintf "%s is not a pldc trace: %s" file m)
    in
    let n_spans = List.length (List.filter (fun (s : T.span) -> s.T.dur_us <> None) spans) in
    Printf.printf "%s: %d spans, %d instants, %d executor run(s)\n" file n_spans
      (List.length spans - n_spans)
      (List.length (Critical_path.runs spans));
    print_endline "\n-- hot spans --";
    print_endline (Profile.render_hot ~top (Profile.flat spans));
    if tree then begin
      print_endline "\n-- top-down profile --";
      print_string (Profile.render_tree spans)
    end;
    match Critical_path.analyze ~workers spans with
    | Some r ->
        print_endline "\n-- critical path (latest run) --";
        print_string (Critical_path.render r)
    | None -> print_endline "\n(no executor run in this trace)"
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ file_arg $ top_arg $ workers_arg $ tree_arg)

(* ---------- baseline save / check ---------- *)

let baseline_file_arg =
  Arg.(
    value
    & opt string "baselines/rosetta.json"
    & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline snapshot file.")

let sentinel_opts_term =
  let benches_arg =
    Arg.(
      value
      & opt (list string) Sentinel.default_options.Sentinel.benches
      & info [ "benches" ] ~docv:"NAMES" ~doc:"Comma-separated suite benchmarks to measure.")
  in
  let levels_arg =
    Arg.(
      value
      & opt (list level_conv) Sentinel.default_options.Sentinel.levels
      & info [ "levels" ] ~docv:"LEVELS" ~doc:"Comma-separated levels to measure.")
  in
  let no_perf_arg =
    Arg.(
      value & flag
      & info [ "no-perf" ] ~doc:"Skip the functional run (Fmax / frame-cycle exact metrics).")
  in
  let no_service_arg =
    Arg.(
      value & flag
      & info [ "no-service" ]
          ~doc:"Skip the compile-service tier (Zipf traffic replay through Pld_service).")
  in
  let no_chaos_arg =
    Arg.(
      value & flag
      & info [ "no-chaos" ]
          ~doc:
            "Skip the chaos tier (deterministic failure-path scenarios: scrub quarantine, \
             connection storm, overload shedding and deadlines).")
  in
  let no_incremental_arg =
    Arg.(
      value & flag
      & info [ "no-incremental" ]
          ~doc:
            "Skip the incremental tier (one-operator edit recompiled through delta P&R per \
             bench).")
  in
  let mk benches levels no_perf no_service no_chaos no_incremental =
    {
      Sentinel.benches;
      levels;
      run_perf = not no_perf;
      run_service = not no_service;
      run_chaos = not no_chaos;
      run_incremental = not no_incremental;
    }
  in
  Term.(
    const mk $ benches_arg $ levels_arg $ no_perf_arg $ no_service_arg $ no_chaos_arg
    $ no_incremental_arg)

let baseline_save_cmd =
  let doc = "Measure the suite and save the snapshot as the new baseline." in
  let run file opts =
    Printf.printf "measuring %s at %s...\n%!"
      (String.concat "," opts.Sentinel.benches)
      (String.concat "," (List.map B.level_name opts.Sentinel.levels));
    let snap = Sentinel.measure opts in
    (match Filename.dirname file with
    | "" | "." -> ()
    | dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    Baseline.save ~file snap;
    Printf.printf "saved baseline %s (%d entries)\n" file (List.length snap.Baseline.entries)
  in
  Cmd.v (Cmd.info "save" ~doc) Term.(const run $ baseline_file_arg $ sentinel_opts_term)

let baseline_check_cmd =
  let doc = "Measure the suite and fail (exit 1) if it regressed against the baseline." in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write machine-readable findings (REGRESSION.json).")
  in
  let run file opts out =
    if not (Sys.file_exists file) then
      die ~code:2 (Printf.sprintf "no baseline at %s (record one with `pldc baseline save`)" file);
    let verdict = Sentinel.check ~base_file:file ?out (Sentinel.measure opts) in
    print_string (Baseline.render_verdict verdict);
    if not verdict.Baseline.ok then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ baseline_file_arg $ sentinel_opts_term $ out_arg)

let baseline_cmd =
  let doc = "Record or enforce a behaviour baseline (the exact regression sentinel)." in
  Cmd.group (Cmd.info "baseline" ~doc) [ baseline_save_cmd; baseline_check_cmd ]

(* ---------- property-based differential fuzzing ---------- *)

let fuzz_cmd =
  let module F = Pld_proptest.Fuzz in
  let doc =
    "Generate random dataflow graphs and differentially check them across optimization levels."
  in
  let seed_arg =
    Arg.(
      value
      & opt int F.default_options.F.seed
      & info [ "seed" ] ~docv:"N" ~doc:"Root seed; equal seeds generate equal cases.")
  in
  let count_arg =
    Arg.(
      value
      & opt int F.default_options.F.count
      & info [ "count" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let max_ops_arg =
    Arg.(
      value
      & opt int F.default_options.F.params.Pld_proptest.Gen.max_ops
      & info [ "max-ops" ] ~docv:"N"
          ~doc:"Operator budget per graph (capped at the softcore page count).")
  in
  let max_tokens_arg =
    Arg.(
      value
      & opt int F.default_options.F.params.Pld_proptest.Gen.max_tokens
      & info [ "max-tokens" ] ~docv:"N" ~doc:"Largest input frame length.")
  in
  let pairs_arg =
    Arg.(
      value & opt string "O0:O3"
      & info [ "level-pairs" ] ~docv:"PAIRS"
          ~doc:"Comma-separated level pairs to compare, e.g. O0:O3,O1:O3.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Persist shrunk reproducers of failing cases here.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the (bit-reproducible) summary JSON to FILE; - for stdout.")
  in
  let fault_sweep_arg =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Also rebuild each passing case at -O1 under injected faults (flaky compile job, \
             defective page, lossy NoC links); recovery must not change any output token.")
  in
  let shrink_budget_arg =
    Arg.(
      value
      & opt int F.default_options.F.shrink_budget
      & info [ "shrink-budget" ] ~docv:"N" ~doc:"Oracle evaluations the shrinker may spend per case.")
  in
  let incremental_arg =
    Arg.(
      value & flag
      & info [ "incremental" ]
          ~doc:
            "Run the edit-sequence equivalence fuzzer instead: each case replays a seeded \
             sequence of small source edits, compiling every edit both through the chained \
             delta-P&R path and from scratch; the two builds must agree bit-for-bit with the \
             reference on every output stream. --count sets the number of sequences, --steps \
             the edits per sequence.")
  in
  let steps_arg =
    Arg.(
      value
      & opt int Pld_proptest.Edit_seq.default_options.Pld_proptest.Edit_seq.q_steps
      & info [ "steps" ] ~docv:"N" ~doc:"Edits per sequence (with --incremental).")
  in
  let run seed count max_ops max_tokens pairs_s corpus json fault_sweep shrink_budget incremental
      steps =
    if incremental then begin
      let module E = Pld_proptest.Edit_seq in
      let opts =
        {
          E.q_seed = seed;
          q_count = count;
          q_steps = steps;
          q_params = { Pld_proptest.Gen.default_params with Pld_proptest.Gen.max_ops; max_tokens };
          q_corpus_dir = corpus;
          q_fuel = None;
        }
      in
      let summary = E.run ~log:print_endline opts in
      print_string (E.render summary);
      (match json with
      | None -> ()
      | Some "-" -> print_endline (Pld_telemetry.Json.to_string (E.summary_json summary))
      | Some file -> Pld_telemetry.Json.write_file ~file (E.summary_json summary));
      exit (if summary.E.z_failed > 0 then 1 else 0)
    end;
    let pairs =
      match F.parse_level_pairs pairs_s with
      | Ok p -> p
      | Error e -> die ~code:2 (Printf.sprintf "bad --level-pairs: %s" e)
    in
    let opts =
      {
        F.seed;
        count;
        params = { Pld_proptest.Gen.default_params with Pld_proptest.Gen.max_ops; max_tokens };
        levels = F.levels_of_pairs pairs;
        pairs;
        corpus_dir = corpus;
        fault_sweep;
        shrink_budget;
        fuel = None;
      }
    in
    let summary = F.run ~log:print_endline opts in
    print_string (F.render summary);
    (match json with
    | None -> ()
    | Some "-" -> print_endline (Pld_telemetry.Json.to_string (F.summary_json summary))
    | Some file -> Pld_telemetry.Json.write_file ~file (F.summary_json summary));
    if summary.F.s_failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seed_arg $ count_arg $ max_ops_arg $ max_tokens_arg $ pairs_arg $ corpus_arg
      $ json_arg $ fault_sweep_arg $ shrink_budget_arg $ incremental_arg $ steps_arg)

(* ---------- in-process service harnesses ---------- *)

(* The in-process services log every request to the default logger,
   which this CLI prints to stderr: the harnesses report through their
   own summaries instead. *)
let quiet_service_log () = Log.set_text_sink logger None

let flag kind default name docv doc = Arg.(value & opt kind default & info [ name ] ~docv ~doc)

let write_json out doc =
  Option.iter
    (fun file ->
      Json.write_file ~pretty:true ~file doc;
      Printf.printf "\nwrote %s\n" file)
    out

let service_cmd =
  let module Service = Pld_service.Service in
  let module Traffic = Pld_service.Traffic in
  let doc =
    "Replay interleaved compile sessions with Zipf-distributed operator popularity over a shared \
     multi-tenant artifact store; print p50/p95/p99 session latency, per-tenant job counts and \
     the cross-tenant hit rate. Exits 1 if any request failed."
  in
  let d = Traffic.default_options in
  let run sessions tenants zipf pool max_chain level seed queue_workers jobs cache_dir max_bytes out
      =
    Printf.printf "service: %d sessions, %d tenants, zipf %.2f over %d ops, %d queue workers...\n%!"
      sessions tenants zipf pool (max 1 queue_workers);
    quiet_service_log ();
    let svc = Service.create ?cache_dir ?max_bytes ~queue_workers ~jobs () in
    let summary =
      Fun.protect
        ~finally:(fun () -> Service.shutdown svc)
        (fun () ->
          Traffic.run ~service:svc
            { Traffic.sessions; tenants; zipf; pool; max_chain; level; seed })
    in
    List.iter print_endline (Traffic.render summary);
    print_newline ();
    List.iter print_endline (Service.render_stats (Service.stats svc));
    write_json out (Traffic.summary_json summary);
    if summary.Traffic.sm_failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "service" ~doc)
    Term.(
      const run
      $ flag Arg.int d.Traffic.sessions "sessions" "N" "Compile requests to issue."
      $ flag Arg.int d.Traffic.tenants "tenants" "N" "Tenants, round-robin."
      $ flag Arg.float d.Traffic.zipf "zipf" "S" "Popularity skew exponent."
      $ flag Arg.int d.Traffic.pool "pool" "N" "Distinct operators."
      $ flag Arg.int d.Traffic.max_chain "max-chain" "N" "Most operators per session graph."
      $ level_arg
      $ flag Arg.int d.Traffic.seed "seed" "N" "Traffic seed."
      $ flag Arg.int 2 "queue-workers" "N" "Service worker domains."
      $ flag Arg.int 1 "jobs" "N" "Executor domains per build."
      $ cache_dir_arg
      $ flag Arg.(some int) None "max-bytes" "N" "Store LRU budget."
      $ flag Arg.(some string) None "out" "FILE" "Write the summary JSON (machine-readable).")

let chaos_cmd =
  let module Chaos = Pld_service.Chaos in
  let doc =
    "Run the seeded crash-recovery scenarios (" ^ String.concat ", " Chaos.scenario_names
    ^ ") under every seed. Exits 1 if any check (conservation of requests, zero corrupt reads \
       after a kill, exact scrub counts, ...) is violated under any seed."
  in
  let run seeds only dir out =
    quiet_service_log ();
    let reports =
      try Chaos.run_seeds ~seeds ?dir ?only ~log:print_endline ()
      with Invalid_argument msg ->
        Printf.eprintf "chaos: %s\n" msg;
        exit 2
    in
    List.iter
      (fun r ->
        Printf.printf "\n-- seed %d --\n" r.Chaos.r_seed;
        List.iter print_endline (Chaos.render r))
      reports;
    write_json out
      (Json.Obj
         [ ("harness", Json.String "chaos"); ("runs", Json.List (List.map Chaos.report_json reports)) ]);
    match List.filter (fun r -> not (Chaos.ok r)) reports with
    | [] -> Printf.printf "\nchaos: all invariants held across %d seed(s)\n" (List.length reports)
    | violated ->
        Printf.printf "\nchaos: INVARIANT VIOLATIONS under seed(s) %s\n"
          (String.concat ", " (List.map (fun r -> string_of_int r.Chaos.r_seed) violated));
        exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run
      $ flag Arg.(list int) [ 7 ] "seed" "N[,N...]" "Seeds to run."
      $ flag Arg.(some (list string)) None "only" "NAME[,NAME...]" "Run only these scenarios."
      $ flag Arg.(some string) None "dir" "DIR" "Scratch directory."
      $ flag Arg.(some string) None "out" "FILE" "Write the per-seed reports as JSON.")

let () =
  let doc = "PLD: partition, link and load applications on programmable logic devices (simulated)" in
  let info = Cmd.info "pldc" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           list_cmd; floorplan_cmd; source_cmd; compile_cmd; run_cmd; profile_cmd; cache_cmd;
           analyze_cmd; baseline_cmd; fuzz_cmd; status_cmd; top_cmd; metrics_cmd; health_cmd;
           service_cmd; chaos_cmd;
         ])
  in
  (* Bad arguments exit 2, as [die ~code:2] does for values cmdliner
     cannot check. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
