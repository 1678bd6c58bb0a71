module N = Pld_netlist.Netlist
module Hls = Pld_hls.Hls_compile

let fsec v = Printf.sprintf "%.2f" v

let compile_row (app : Build.app) =
  let r = app.Build.report in
  let p = r.Build.phases in
  let total =
    match app.Build.level with
    | Build.O0 | Build.O1 -> r.Build.parallel_seconds
    | Build.O3 | Build.Vitis -> r.Build.serial_seconds
  in
  [
    Build.level_name app.Build.level;
    fsec p.Flow.hls;
    fsec p.Flow.syn;
    fsec p.Flow.pnr;
    fsec p.Flow.bitgen;
    fsec total;
  ]

let compile_summary (app : Build.app) =
  let r = app.Build.report in
  Printf.sprintf
    "%s %s: %d compiled, %d cache hits; serial %.2fs, cluster wall %.2fs (model, %d workers), \
     measured %.4fs (%d jobs) (phases: hls %.2f syn %.2f p&r %.2f bit %.2f overhead %.2f)"
    app.Build.graph.Pld_ir.Graph.graph_name (Build.level_name r.Build.level) r.Build.recompiled
    r.Build.cache_hits r.Build.serial_seconds r.Build.parallel_seconds r.Build.workers
    r.Build.wall_seconds r.Build.jobs r.Build.phases.Flow.hls r.Build.phases.Flow.syn
    r.Build.phases.Flow.pnr r.Build.phases.Flow.bitgen r.Build.phases.Flow.overhead

let cache_summary (r : Build.report) =
  String.concat ", "
    (List.map
       (fun (kind, hits, misses) -> Printf.sprintf "%s %d hit/%d miss" kind hits misses)
       r.Build.by_kind)

(* The human --trace view is rendered from the telemetry spans — a
   build's only trace. The sink is process-wide, so engine jobs, NoC
   replays, cosim firings and the loader's recovery ladder
   interleave on one wall-clock timeline in timestamp order. Modeled
   spans live on a different clock and get their own trailing
   section. *)
let trace_lines tele =
  let module T = Pld_telemetry.Telemetry in
  let attrs_of (s : T.span) =
    match s.T.attrs with
    | [] -> ""
    | kvs -> "  " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
  in
  let wall, modeled = List.partition (fun (s : T.span) -> s.T.clock = T.Wall) (T.spans tele) in
  let by_start a b = compare (a.T.start_us, a.T.track) (b.T.start_us, b.T.track) in
  let wall_line (s : T.span) =
    match s.T.dur_us with
    | Some d ->
        Printf.sprintf "[%12.3f ms] %-8s %s (%.3f ms)%s" (s.T.start_us /. 1000.0) s.T.cat s.T.name
          (d /. 1000.0) (attrs_of s)
    | None ->
        Printf.sprintf "[%12.3f ms] %-8s * %s%s" (s.T.start_us /. 1000.0) s.T.cat s.T.name
          (attrs_of s)
  in
  let modeled_line (s : T.span) =
    let d = Option.value ~default:0.0 s.T.dur_us in
    Printf.sprintf "[%12.3f s ] %-8s %s (%.3f s)%s" (s.T.start_us /. 1.0e6) s.T.cat s.T.name
      (d /. 1.0e6) (attrs_of s)
  in
  List.map wall_line (List.stable_sort by_start wall)
  @
  match List.stable_sort by_start modeled with
  | [] -> []
  | ms -> "-- modeled clock --" :: List.map modeled_line ms

let area_of (app : Build.app) =
  match app.Build.level with
  | Build.O3 | Build.Vitis ->
      let mono = Build.monolithic_exn app in
      (N.total_res mono.Flow.merged, 0)
  | Build.O0 | Build.O1 ->
      let res =
        List.fold_left
          (fun acc (_, c) ->
            match c with
            | Build.Hw_page h -> N.res_add acc (N.total_res h.Flow.pnr.Pld_pnr.Pnr.netlist)
            | Build.Soft_page _ -> N.res_add acc Build.softcore_demand)
          N.res_zero app.Build.operators
      in
      (res, List.length app.Build.operators)

let area_row app =
  let res, pages = area_of app in
  [
    Build.level_name app.Build.level;
    string_of_int res.N.luts;
    string_of_int res.N.brams;
    string_of_int res.N.dsps;
    (if pages = 0 then "-" else string_of_int pages);
  ]

(* ---------- fault recovery ---------- *)

let build_recovery_lines (r : Build.report) =
  List.map
    (fun (job, err) -> Printf.sprintf "quarantined %s: %s" job err)
    r.Build.quarantined
  @ List.map
      (fun inst -> Printf.sprintf "fallback    %s: page compile quarantined -> -O0 softcore build" inst)
      r.Build.fallbacks

let recovery_lines (dr : Loader.deploy_result) =
  match dr.Loader.recovery with
  | [] -> [ "recovery: none (fault-free deploy)" ]
  | evs ->
      Printf.sprintf "recovery: %d event(s)%s" (List.length evs)
        (if dr.Loader.degraded then " — DEGRADED (softcore fallback active)" else "")
      :: List.map (fun e -> "  " ^ Loader.describe_recovery e) evs

let degraded_perf_lines ~nominal ~(actual : Runner.result) =
  let n = nominal.Runner.perf.Runner.ms_per_input in
  let a = actual.Runner.perf.Runner.ms_per_input in
  let ratio = if n > 0.0 then a /. n else 1.0 in
  [
    Printf.sprintf "perf: %.3f ms/input vs %.3f ms/input nominal (%.2fx)" a n ratio;
    (match actual.Runner.noc with
    | Some r ->
        Printf.sprintf "noc:  %d dropped, %d corrupted, %d retransmitted" r.Pld_noc.Traffic.dropped
          r.Pld_noc.Traffic.corrupted r.Pld_noc.Traffic.retransmitted
    | None -> "noc:  0 dropped, 0 corrupted, 0 retransmitted");
  ]
