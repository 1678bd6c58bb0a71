module B = Pld_core.Build
module R = Pld_core.Runner
module Flow = Pld_core.Flow
module Suite = Pld_rosetta.Suite
module Fp = Pld_fabric.Floorplan

type options = {
  benches : string list;
  levels : B.level list;
  repeats : int;
  pace : float;
  jobs : int;
  run_perf : bool;
  run_service : bool;
  run_chaos : bool;
  run_incremental : bool;
}

let default_options =
  {
    benches = [ "spam"; "optical" ];
    levels = [ B.O1; B.O3 ];
    repeats = 3;
    pace = 0.0;
    jobs = 1;
    run_perf = true;
    run_service = true;
    run_chaos = true;
    run_incremental = true;
  }

let level_of_string s =
  let s = String.lowercase_ascii s in
  let s = if String.length s > 0 && s.[0] = '-' then String.sub s 1 (String.length s - 1) else s in
  match s with
  | "o0" -> Some B.O0
  | "o1" -> Some B.O1
  | "o3" -> Some B.O3
  | "vitis" -> Some B.Vitis
  | _ -> None

let iso_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* One (bench, level) cell: [repeats] cold-cache compiles for the
   noisy classes, the first compile's report (plus one functional run)
   for the deterministic ones. *)
let measure_entry opts (b : Suite.bench) level =
  let fp = Fp.u50 () in
  let graph = b.Suite.graph (Pld_ir.Graph.Hw { page_hint = None }) in
  let compile_once () =
    let cache = B.create_cache () in
    B.compile ~cache ~jobs:opts.jobs ~pace:opts.pace fp graph ~level
  in
  let apps = List.init (max 1 opts.repeats) (fun _ -> compile_once ()) in
  let reports = List.map (fun (a : B.app) -> a.B.report) apps in
  let tool_samples f = List.map f reports in
  let tool =
    List.map
      (fun (name, f) -> (name, Baseline.stats_of (tool_samples f)))
      [
        ("hls_seconds", fun (r : B.report) -> r.B.phases.Flow.hls);
        ("syn_seconds", fun r -> r.B.phases.Flow.syn);
        ("pnr_seconds", fun r -> r.B.phases.Flow.pnr);
        ("bitgen_seconds", fun r -> r.B.phases.Flow.bitgen);
        ("serial_seconds", fun r -> r.B.serial_seconds);
        ("parallel_seconds", fun r -> r.B.parallel_seconds);
      ]
  in
  let wall =
    [ ("wall_seconds", Baseline.stats_of (tool_samples (fun r -> r.B.wall_seconds))) ]
  in
  let first = List.hd reports in
  (* Placement and routing are deterministic given their seed, so
     their counters are exact: any drift means the P&R output moved. *)
  let pnr_results =
    let app = List.hd apps in
    List.filter_map
      (function _, B.Hw_page (h : Flow.o1_operator) -> Some h.Flow.pnr | _, B.Soft_page _ -> None)
      app.B.operators
    @ Option.to_list (Option.map (fun (m : Flow.o3_app) -> m.Flow.pnr3) app.B.monolithic)
  in
  let pnr_sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 pnr_results) in
  let exact =
    [
      ("cache_hits", float_of_int first.B.cache_hits);
      ("recompiled", float_of_int first.B.recompiled);
      ("overhead_seconds", first.B.phases.Flow.overhead);
      ("place_wirelength", pnr_sum (fun r -> r.Pld_pnr.Pnr.place.Pld_pnr.Place.wirelength));
      ("place_moves", pnr_sum (fun r -> r.Pld_pnr.Pnr.place.Pld_pnr.Place.moves_evaluated));
      ("route_total_wire", pnr_sum (fun r -> r.Pld_pnr.Pnr.route.Pld_pnr.Route.total_wire));
    ]
    @
    if not opts.run_perf then []
    else begin
      let r = R.run (List.hd apps) ~inputs:(b.Suite.workload ()) in
      [
        ("fmax_mhz", r.R.perf.R.fmax_mhz);
        ("frame_cycles", float_of_int r.R.perf.R.frame_cycles);
        ("ms_per_input", r.R.perf.R.ms_per_input);
      ]
    end
  in
  { Baseline.bench = b.Suite.name; level = B.level_name level; exact; tool; wall }

(* The service tier guards the daemon path: a fixed Zipf trace through
   a single-worker service. One worker serializes the compiles, so the
   conservation metrics (sessions completed, distinct graphs, operator
   recompiles, store writes) are exact — every distinct artifact is
   built exactly once no matter how requests interleave. What depends
   on drain timing (dedup vs after-the-fact cache hits) and on the
   machine (latency percentiles) goes in the noise-aware classes. *)
let service_traffic =
  {
    Pld_service.Traffic.default_options with
    Pld_service.Traffic.sessions = 60;
    tenants = 4;
    pool = 12;
    max_chain = 3;
    zipf = 1.1;
    seed = 11;
  }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let measure_service opts =
  let run_once i =
    (* A fresh persistent store per repeat: cold-cache runs are the
       comparable ones, and a real store is what makes the write
       accounting non-vacuous. *)
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "pld-sentinel-%d-%d" (Unix.getpid ()) i)
    in
    let service =
      Pld_service.Service.create ~cache_dir:dir ~queue_workers:1 ~jobs:opts.jobs ()
    in
    Fun.protect
      ~finally:(fun () ->
        Pld_service.Service.shutdown service;
        rm_rf dir)
      (fun () -> Pld_service.Traffic.run ~service service_traffic)
  in
  let runs = List.init (max 1 opts.repeats) run_once in
  let first = List.hd runs in
  let module Tr = Pld_service.Traffic in
  let tool =
    List.map
      (fun (name, f) -> (name, Baseline.stats_of (List.map f runs)))
      [
        ("svc_latency_p50_s", fun (s : Tr.summary) -> s.Tr.sm_p50);
        ("svc_latency_p95_s", fun s -> s.Tr.sm_p95);
        ("svc_latency_p99_s", fun s -> s.Tr.sm_p99);
        ("svc_latency_mean_s", fun s -> s.Tr.sm_mean);
        ("svc_deduped", fun s -> float_of_int s.Tr.sm_deduped);
        ("svc_cross_tenant_hits", fun s -> float_of_int s.Tr.sm_cross_hits);
        ("svc_cache_hits", fun s -> float_of_int s.Tr.sm_cache_hits);
      ]
  in
  let wall = [ ("wall_seconds", Baseline.stats_of (List.map (fun s -> s.Tr.sm_wall_seconds) runs)) ] in
  let exact =
    [
      ("svc_completed", float_of_int first.Tr.sm_completed);
      ("svc_failed", float_of_int first.Tr.sm_failed);
      ("svc_distinct_graphs", float_of_int first.Tr.sm_distinct_graphs);
      ("svc_recompiled", float_of_int first.Tr.sm_recompiled);
      ("svc_store_writes", float_of_int first.Tr.sm_store_writes);
    ]
  in
  {
    Baseline.bench = "service";
    level = B.level_name service_traffic.Tr.level;
    exact;
    tool;
    wall;
  }

(* The chaos tier guards the failure paths. The deterministic chaos
   scenarios (no forking — safe after domains exist) produce exact
   counter values given a seed: how many submissions were shed, how
   many deadlines expired and where, how many wedged builds the
   watchdog wrote off, how many corrupt entries a scrub quarantined,
   how many dropped connections were counted. Any drift in those
   numbers means the rejection taxonomy or the recovery machinery
   changed — exactly what a refactor breaks silently. Only wall time
   is machine-dependent. *)
let measure_chaos () =
  let module Chaos = Pld_service.Chaos in
  let report = Chaos.run ~seed:7 ~only:Chaos.deterministic_names () in
  let failed =
    List.concat_map
      (fun (s : Chaos.scenario_report) ->
        List.filter (fun (c : Chaos.check) -> not c.Chaos.ck_ok) s.Chaos.sr_checks)
      report.Chaos.r_scenarios
  in
  let exact =
    ("chaos_checks_failed", float_of_int (List.length failed))
    :: List.map (fun (n, v) -> (n, float_of_int v)) (Chaos.counters report)
  in
  let wall_s =
    List.fold_left (fun acc s -> acc +. s.Chaos.sr_wall_s) 0.0 report.Chaos.r_scenarios
  in
  let wall = [ ("wall_seconds", Baseline.stats_of [ wall_s ]) ] in
  { Baseline.bench = "chaos"; level = "seed7"; exact; tool = []; wall }

(* The incremental tier guards the delta-P&R fast path: compile each
   bench cold at -O3, touch one operator, and recompile seeded with the
   previous build. Whether the delta path was taken (vs a fallback
   reason) is deterministic given the seed, so it goes in the exact
   class — a placer or gate change that silently knocks a benchmark
   back to scratch compiles trips the sentinel. The scratch and delta
   P&R times (and their ratio, the headline speedup) are wall-clock and
   land in the noise-aware tool class. *)
let measure_incremental opts (b : Suite.bench) =
  let fp = Fp.u50 () in
  let g = b.Suite.graph (Pld_ir.Graph.Hw { page_hint = None }) in
  let victim = (List.hd g.Pld_ir.Graph.instances).Pld_ir.Graph.inst_name in
  let edited = Option.get (Pld_ir.Graph.touch_op g victim) in
  let pnr_seconds (app : B.app) =
    let p = (B.monolithic_exn app).Flow.pnr3 in
    p.Pld_pnr.Pnr.place_seconds +. p.Pld_pnr.Pnr.route_seconds +. p.Pld_pnr.Pnr.sta_seconds
  in
  let run_once () =
    let cache = B.create_cache () in
    let scratch = B.compile ~cache ~jobs:opts.jobs ~pace:opts.pace fp g ~level:B.O3 in
    let delta =
      B.compile ~cache ~jobs:opts.jobs ~pace:opts.pace ~previous:scratch fp edited ~level:B.O3
    in
    (scratch, delta)
  in
  let runs = List.init (max 1 opts.repeats) (fun _ -> run_once ()) in
  let tool =
    let stats f = Baseline.stats_of (List.map f runs) in
    [
      ("inc_scratch_pnr_seconds", stats (fun (s, _) -> pnr_seconds s));
      ("inc_delta_pnr_seconds", stats (fun (_, d) -> pnr_seconds d));
      ( "inc_speedup",
        stats (fun (s, d) -> pnr_seconds s /. Float.max 1e-9 (pnr_seconds d)) );
    ]
  in
  let _, first_delta = List.hd runs in
  let stats = (B.monolithic_exn first_delta).Flow.pnr3.Pld_pnr.Pnr.delta in
  let exact =
    match stats with
    | Some d ->
        [
          ( "inc_delta_hits",
            if d.Pld_pnr.Pnr.fallback = None then 1.0 else 0.0 );
          ("inc_cells_kept", float_of_int d.Pld_pnr.Pnr.cells_kept);
          ("inc_nets_rerouted", float_of_int d.Pld_pnr.Pnr.nets_rerouted);
        ]
    | None -> [ ("inc_delta_hits", 0.0) ]
  in
  { Baseline.bench = b.Suite.name; level = "incremental"; exact; tool; wall = [] }

let measure ?(suite = "rosetta") opts =
  let entries =
    List.concat_map
      (fun name ->
        let b = Suite.find name in
        List.map (measure_entry opts b) opts.levels)
      opts.benches
    @ (if opts.run_incremental then
         List.map (fun name -> measure_incremental opts (Suite.find name)) opts.benches
       else [])
    @ (if opts.run_service then [ measure_service opts ] else [])
    @ (if opts.run_chaos then [ measure_chaos () ] else [])
  in
  {
    Baseline.version = Baseline.current_version;
    suite;
    created = iso_now ();
    repeats = opts.repeats;
    pace = opts.pace;
    entries;
  }

let perturb factors (s : Baseline.snapshot) =
  let scale name v =
    match List.assoc_opt name factors with Some f -> v *. f | None -> v
  in
  let scale_stats name (st : Baseline.stats) =
    match List.assoc_opt name factors with
    | None -> st
    | Some f ->
        {
          st with
          Baseline.median = st.Baseline.median *. f;
          mad = st.Baseline.mad *. Float.abs f;
          lo = Float.min (st.Baseline.lo *. f) (st.Baseline.hi *. f);
          hi = Float.max (st.Baseline.lo *. f) (st.Baseline.hi *. f);
        }
  in
  {
    s with
    Baseline.entries =
      List.map
        (fun (e : Baseline.entry) ->
          {
            e with
            Baseline.exact = List.map (fun (m, v) -> (m, scale m v)) e.Baseline.exact;
            tool = List.map (fun (m, st) -> (m, scale_stats m st)) e.Baseline.tool;
            wall = List.map (fun (m, st) -> (m, scale_stats m st)) e.Baseline.wall;
          })
        s.Baseline.entries;
  }

let check ~base_file ?thresholds ?exact_only ?out current =
  let base = Baseline.load ~file:base_file in
  let verdict = Baseline.compare_snapshots ?thresholds ?exact_only ~base current in
  Option.iter
    (fun file -> Pld_telemetry.Json.write_file ~pretty:true ~file (Baseline.verdict_json verdict))
    out;
  verdict
