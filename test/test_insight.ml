(* The insight layer: span profiles and critical-path extraction, plus
   the delta-P&R edit loop's pinned counters. Synthetic spans pin the
   math down exactly; a real [Build.compile] against a private sink
   checks that the model recovered from spans alone matches the build
   report, cold and fully cached. *)

module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module Profile = Pld_insight.Profile
module Critical_path = Pld_insight.Critical_path
module B = Pld_core.Build
module Fp = Pld_fabric.Floorplan
module Suite = Pld_rosetta.Suite

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))
let check_strings = Alcotest.(check (list string))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let span ?(cat = "t") ?(track = 0) ?(clock = T.Wall) ?(attrs = []) ?dur name start =
  {
    T.name;
    cat;
    track;
    clock;
    start_us = start;
    dur_us = dur;
    attrs;
  }

(* root [0,100] > a [10,50] > leaf [15,25]; b [60,90] is root's second
   child; a second track holds an unrelated span. *)
let synthetic_spans =
  [
    span "root" 0.0 ~dur:100.0;
    span "a" 10.0 ~dur:40.0;
    span "leaf" 15.0 ~dur:10.0;
    span "b" 60.0 ~dur:30.0;
    span "other" 0.0 ~dur:20.0 ~track:1;
    span "mark" 5.0 (* instant: ignored by the profiler *);
  ]

let test_forest_nesting () =
  let forest = Profile.forest synthetic_spans in
  check_int "two timelines, one root each" 2 (List.length forest);
  let root = List.hd forest in
  check_string "outermost span" "root" root.Profile.span.T.name;
  check_strings "root's children in start order"
    [ "a"; "b" ]
    (List.map (fun n -> n.Profile.span.T.name) root.Profile.children);
  let a = List.hd root.Profile.children in
  check_strings "grandchild under a" [ "leaf" ]
    (List.map (fun n -> n.Profile.span.T.name) a.Profile.children);
  let other = List.nth forest 1 in
  check_string "second track is its own timeline" "other" other.Profile.span.T.name;
  check_int "no children on the second track" 0 (List.length other.Profile.children)

let row name rows =
  match List.find_opt (fun r -> r.Profile.name = name) rows with
  | Some r -> r
  | None -> Alcotest.failf "no row for %s" name

let test_flat_self_time () =
  let rows = Profile.flat synthetic_spans in
  (* Durations are microseconds; rows report seconds. *)
  let r = row "root" rows in
  check_float "root total" 1e-4 r.Profile.total_s;
  check_float "root self = total - a - b" 3e-5 r.Profile.self_s;
  let a = row "a" rows in
  check_float "a self = total - leaf" 3e-5 a.Profile.self_s;
  check_float "leaf keeps its full duration" 1e-5 (row "leaf" rows).Profile.self_s;
  let sum = List.fold_left (fun acc r -> acc +. r.Profile.self_s) 0.0 rows in
  let total_span = 1.2e-4 (* 100us on track 0 + 20us on track 1 *) in
  check_float "selves sum to the timelines' span" total_span sum

let test_flat_separates_clocks () =
  let spans =
    [ span "x" 0.0 ~dur:10.0 ~clock:T.Wall; span "x" 0.0 ~dur:50.0 ~clock:T.Modeled ~track:9 ]
  in
  let rows = Profile.flat spans in
  check_int "same name, two clocks, two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      match r.Profile.clock with
      | T.Wall -> check_float "wall row" 1e-5 r.Profile.total_s
      | T.Modeled -> check_float "modeled row" 5e-5 r.Profile.total_s)
    rows

let test_renderers_smoke () =
  let hot = Profile.render_hot (Profile.flat synthetic_spans) in
  check_bool "hot list names the root" true
    (String.length hot > 0 && contains ~sub:"root" hot);
  let tree = Profile.render_tree ~min_s:0.0 synthetic_spans in
  check_bool "tree shows the leaf" true (contains ~sub:"leaf" tree);
  check_bool "tree indents the leaf under a" true
    (contains ~sub:"    leaf" tree)

let test_trace_roundtrip () =
  let tele = T.create () in
  T.with_span tele ~cat:"engine" "outer" (fun () ->
      T.with_span tele ~cat:"engine" ~attrs:[ ("k", "v") ] "inner" (fun () -> ());
      T.instant tele ~cat:"engine" "tick");
  let file = Filename.temp_file "pld-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      T.write_chrome tele ~file;
      let reloaded = T.read_chrome ~file in
      let live = T.spans tele in
      check_int "span count survives" (List.length live) (List.length reloaded);
      let find name l = List.find (fun (s : T.span) -> s.T.name = name) l in
      let inner = find "inner" reloaded and inner0 = find "inner" live in
      check_string "category survives" inner0.T.cat inner.T.cat;
      check_bool "clock survives" true (inner.T.clock = inner0.T.clock);
      check_bool "attrs survive" true (List.mem ("k", "v") inner.T.attrs);
      Alcotest.(check (option (float 0.5)))
        "duration survives" inner0.T.dur_us inner.T.dur_us;
      check_bool "instant stays an instant" true ((find "tick" reloaded).T.dur_us = None);
      (* The reloaded spans must profile identically to the live ones. *)
      check_string "profiles agree live vs reloaded"
        (Profile.render_hot (Profile.flat live))
        (Profile.render_hot (Profile.flat reloaded)))

let test_trace_rejects_garbage () =
  (match T.of_chrome_json (Json.of_string "{\"hello\": 1}") with
  | exception T.Malformed_trace _ -> ()
  | _ -> Alcotest.fail "expected Malformed on a non-trace document");
  let file = Filename.temp_file "pld-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc "{not json");
      match T.read_chrome ~file with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail "expected Parse_error on bad JSON")

(* A hand-built run where the modeled chain and the measured path
   disagree on purpose: measured goes through [slow_wall], modeled
   through [slow_model]. *)
let synthetic_run =
  let job name start dur deps kind =
    span name start ~dur ~cat:"engine"
      ~attrs:[ ("run", "7"); ("deps", deps); ("kind", kind) ]
  in
  let flow phase start dur jobname =
    span phase start ~dur ~cat:"flow" ~clock:T.Modeled ~track:5
      ~attrs:[ ("run", "7"); ("job", jobname) ]
  in
  [
    (* an earlier run in the same sink must be ignored *)
    span "ghost" 0.0 ~dur:5.0 ~cat:"engine" ~attrs:[ ("run", "6"); ("deps", "") ];
    span "graph" 0.0 ~dur:5.0 ~cat:"engine" ~attrs:[ ("run", "6") ];
    span "graph" 0.0 ~dur:1000.0 ~cat:"engine" ~attrs:[ ("run", "7") ];
    job "src" 0.0 100.0 "" "hls";
    job "slow_wall" 100.0 600.0 "src" "page";
    job "slow_model" 100.0 100.0 "src" "page";
    job "sink" 700.0 100.0 "slow_wall,slow_model" "page";
    flow "pnr" 0.0 3.0e6 "slow_model";
    flow "bitgen" 3.0e6 1.0e6 "slow_model";
    flow "pnr" 0.0 0.5e6 "sink";
  ]

let test_critical_path_synthetic () =
  check_strings "both graph spans listed, oldest first" [ "6"; "7" ]
    (Critical_path.runs synthetic_run);
  match Critical_path.analyze ~workers:2 synthetic_run with
  | None -> Alcotest.fail "no report"
  | Some r ->
      check_string "latest run picked" "7" r.Critical_path.run;
      check_int "jobs of run 7 only" 4 (List.length r.Critical_path.jobs);
      check_float "graph wall" 1e-3 r.Critical_path.graph_wall_s;
      check_float "measured path length" 8e-4 r.Critical_path.measured_s;
      check_strings "measured path goes through slow_wall"
        [ "src"; "slow_wall"; "sink" ]
        r.Critical_path.measured_path;
      check_float "modeled chain length" 4.5 r.Critical_path.modeled_chain_s;
      check_strings "modeled chain goes through slow_model"
        [ "src"; "slow_model"; "sink" ]
        r.Critical_path.modeled_chain;
      check_float "phase total: pnr" 3.5
        (List.assoc "pnr" r.Critical_path.phase_totals);
      check_float "phase total: bitgen" 1.0
        (List.assoc "bitgen" r.Critical_path.phase_totals);
      let _, n, wall, model =
        List.find (fun (k, _, _, _) -> k = "page") r.Critical_path.by_kind
      in
      check_int "page jobs" 3 n;
      check_float "page wall" 8e-4 wall;
      check_float "page model" 4.5 model;
      (* LPT over modeled durations {4.0, 0.5, 0, 0} on 2 machines:
         the 4.0 job gets its own machine, makespan 4.0. *)
      check_float "lpt makespan" 4.0 r.Critical_path.lpt_s;
      check_bool "render mentions the divergence table" true
        (contains ~sub:"model/wall" (Critical_path.render r))

let test_critical_path_real_build () =
  let bench = Suite.find "spam" in
  let graph = bench.Suite.graph (Pld_ir.Graph.Hw { page_hint = None }) in
  let fp = Fp.u50 () in
  let cache = B.create_cache () in
  (* Cold build: the LPT makespan recovered from the spans must equal
     the report's parallel_seconds — same model, two routes. *)
  let tele = T.create () in
  let app = B.compile ~cache ~telemetry:tele fp graph ~level:B.O1 in
  let report =
    match Critical_path.analyze ~workers:app.B.report.B.workers (T.spans tele) with
    | Some r -> r
    | None -> Alcotest.fail "cold build: no executor run in the sink"
  in
  Alcotest.(check (float 1e-3))
    "lpt_s reproduces report.parallel_seconds" app.B.report.B.parallel_seconds
    report.Critical_path.lpt_s;
  check_bool "cold build has modeled phases" true (report.Critical_path.phase_totals <> []);
  check_bool "pnr phase present" true
    (List.mem_assoc "pnr" report.Critical_path.phase_totals);
  Alcotest.(check (float 1e-3))
    "pnr phase total reproduces report.phases" app.B.report.B.phases.Pld_core.Flow.pnr
    (List.assoc "pnr" report.Critical_path.phase_totals);
  (* Fully cached rebuild: nothing recompiles, so the modeled side is
     empty and the measured path is pure orchestration overhead. *)
  let tele2 = T.create () in
  let app2 = B.compile ~cache ~telemetry:tele2 fp graph ~level:B.O1 in
  check_int "fully cached" 0 app2.B.report.B.recompiled;
  let r2 =
    match Critical_path.analyze ~workers:app2.B.report.B.workers (T.spans tele2) with
    | Some r -> r
    | None -> Alcotest.fail "cached build: no executor run in the sink"
  in
  check_float "cached modeled makespan is zero" 0.0 r2.Critical_path.lpt_s;
  check_float "cached modeled chain is zero" 0.0 r2.Critical_path.modeled_chain_s;
  check_bool "cached build has no modeled phases" true (r2.Critical_path.phase_totals = [])

(* The delta-P&R edit loop: compile each bench cold at -O3, touch its
   first operator and recompile seeded with the previous build. The
   delta path must serve the edit (no fallback reason) and keep and
   reroute exactly the pinned cells and nets, so a placer or gate
   change that knocks a bench back to scratch compiles fails here. The
   saving is counted in annealing moves against a scratch compile of
   the same edit, not timed. *)
let incremental_pins = [ ("spam", 82, 0); ("optical", 274, 1) ]

let test_sentinel_incremental_tier () =
  let fp = Fp.u50 () in
  let pnr app = (B.monolithic_exn app).Pld_core.Flow.pnr3 in
  let moves app = (pnr app).Pld_pnr.Pnr.place.Pld_pnr.Place.moves_evaluated in
  List.iter
    (fun (name, kept, rerouted) ->
      let what metric = name ^ " incremental " ^ metric in
      let g = (Suite.find name).Suite.graph (Pld_ir.Graph.Hw { page_hint = None }) in
      let victim = (List.hd g.Pld_ir.Graph.instances).Pld_ir.Graph.inst_name in
      let edited = Option.get (Pld_ir.Graph.touch_op g victim) in
      let cache = B.create_cache () in
      let previous = B.compile ~cache fp g ~level:B.O3 in
      let delta = B.compile ~cache ~previous fp edited ~level:B.O3 in
      (match (pnr delta).Pld_pnr.Pnr.delta with
      | None -> Alcotest.fail (what "inc_delta_hits: the edit took no delta path")
      | Some d ->
          Alcotest.(check (option string))
            (what "inc_delta_hits (fallback reason)")
            None d.Pld_pnr.Pnr.fallback;
          check_int (what "inc_cells_kept") kept d.Pld_pnr.Pnr.cells_kept;
          check_int (what "inc_nets_rerouted") rerouted d.Pld_pnr.Pnr.nets_rerouted);
      let scratch = B.compile ~cache:(B.create_cache ()) fp edited ~level:B.O3 in
      check_bool
        (Printf.sprintf "%s: delta at least 2x fewer moves than scratch (%d vs %d)" name
           (moves delta) (moves scratch))
        true
        (moves scratch >= 2 * moves delta))
    incremental_pins

let suite =
  [
    Alcotest.test_case "profile forest recovers nesting" `Quick test_forest_nesting;
    Alcotest.test_case "flat profile self time" `Quick test_flat_self_time;
    Alcotest.test_case "flat profile separates clocks" `Quick test_flat_separates_clocks;
    Alcotest.test_case "profile renderers" `Quick test_renderers_smoke;
    Alcotest.test_case "trace round-trips through chrome json" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace rejects garbage" `Quick test_trace_rejects_garbage;
    Alcotest.test_case "critical path on a synthetic run" `Quick test_critical_path_synthetic;
    Alcotest.test_case "critical path vs makespan on a real build" `Quick
      test_critical_path_real_build;
    Alcotest.test_case "sentinel incremental tier" `Quick test_sentinel_incremental_tier;
  ]
