(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) on the simulated substrate, plus the ablations called
   out in DESIGN.md.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe table2 fig9  -- selected experiments

   Absolute numbers are not comparable to the paper (its backend is
   Vivado on a physical U50; ours is a scaled simulator) — the shapes
   (who wins, by what factor, where the bottleneck sits) are. *)

open Pld_rosetta
module B = Pld_core.Build
module R = Pld_core.Runner
module Fp = Pld_fabric.Floorplan
module N = Pld_netlist.Netlist
module Table = Pld_util.Table
module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json

let fp = Fp.u50 ()
let hw = Pld_ir.Graph.Hw { page_hint = None }

let section title =
  print_string (T.render_section title);
  flush stdout

(* One shared cache so repeated builds across experiments are free. *)
let cache = B.create_cache ()

let compile b level = B.compile ~cache fp (b.Suite.graph hw) ~level

type bench_results = {
  bench : Suite.bench;
  apps : (B.level * B.app) list;
  runs : (B.level * R.result) list;
  host_seconds : float;
  ok : bool;
}

let results : (string, bench_results) Hashtbl.t = Hashtbl.create 8

let evaluate (b : Suite.bench) =
  match Hashtbl.find_opt results b.Suite.name with
  | Some r -> r
  | None ->
      let inputs = b.Suite.workload () in
      let levels = [ B.Vitis; B.O3; B.O1; B.O0 ] in
      let apps = List.map (fun l -> (l, compile b l)) levels in
      let runs = List.map (fun (l, app) -> (l, R.run app ~inputs)) apps in
      let _, host_seconds = R.run_host (b.Suite.graph hw) ~inputs in
      let ok =
        List.for_all (fun ((_ : B.level), (r : R.result)) -> b.Suite.check ~inputs r.R.outputs) runs
      in
      let r = { bench = b; apps; runs; host_seconds; ok } in
      Hashtbl.replace results b.Suite.name r;
      r

let total_of level (app : B.app) =
  match level with
  | B.O0 | B.O1 -> app.B.report.B.parallel_seconds
  | B.O3 | B.Vitis -> app.B.report.B.serial_seconds

(* ---------- Table 1 / Fig 8 ---------- *)

let table1 () =
  section "Table 1: page resource distribution (scaled XCU50 model)";
  let rows =
    List.map
      (fun (ty, (cap : N.res), count) ->
        [
          Printf.sprintf "Type-%d" ty;
          string_of_int cap.N.luts;
          string_of_int cap.N.ffs;
          string_of_int cap.N.brams;
          string_of_int cap.N.dsps;
          string_of_int count;
        ])
      (Fp.type_summary fp)
  in
  print_endline
    (Table.render
       ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "Page Type"; "LUTs"; "FFs"; "BRAM18s"; "DSPs"; "Number" ]
       rows);
  let r = Pld_fabric.Device.total_user_resources fp.Fp.device in
  Printf.printf
    "available to developers: %d LUTs, %d BRAM18, %d DSPs (paper, full scale: 751793 / 2300 / 5936)\n"
    r.N.luts r.N.brams r.N.dsps;
  section "Fig 8: physical layout floorplan (pages a-v, S=shell, H=HBM)";
  print_endline (Fp.render fp)

(* ---------- Table 2 ---------- *)

let table2 () =
  section "Table 2: compile time in seconds (measured on this machine)";
  let header = [ "Benchmark"; "flow"; "hls"; "syn"; "p&r"; "bit"; "overhead"; "total" ] in
  let rows =
    List.concat_map
      (fun b ->
        let r = evaluate b in
        List.map
          (fun (level, (app : B.app)) ->
            let p = app.B.report.B.phases in
            [
              r.bench.Suite.paper_name;
              B.level_name level;
              Printf.sprintf "%.2f" p.Pld_core.Flow.hls;
              Printf.sprintf "%.2f" p.Pld_core.Flow.syn;
              Printf.sprintf "%.2f" p.Pld_core.Flow.pnr;
              Printf.sprintf "%.2f" p.Pld_core.Flow.bitgen;
              Printf.sprintf "%.2f" p.Pld_core.Flow.overhead;
              Printf.sprintf "%.2f" (total_of level app);
            ])
          r.apps)
      Suite.all
  in
  print_endline (Table.render ~header rows);
  print_endline "paper shape: Vitis/-O3 1-2 hours; -O1 10-20 minutes (4.2-7.3x); -O0 seconds.";
  (* Speedup ratios live in the metrics registry (a gauge per bench, a
     histogram for the suite-wide spread) and are rendered from it. *)
  let spread = T.histogram T.default "bench.table2.o3_o1_speedup" in
  List.iter
    (fun b ->
      let r = evaluate b in
      let total level = total_of level (List.assoc level r.apps) in
      let set metric v =
        T.set_gauge (T.gauge T.default (Printf.sprintf "bench.table2.%s.%s" b.Suite.name metric)) v
      in
      set "o3_o1_speedup" (total B.O3 /. total B.O1);
      set "o1_o0_ratio" (total B.O1 /. total B.O0);
      T.observe spread (total B.O3 /. total B.O1))
    Suite.all;
  List.iter
    (fun b ->
      List.iter
        (fun metric ->
          Option.iter
            (fun line -> print_endline ("  " ^ line))
            (T.render_metric T.default (Printf.sprintf "bench.table2.%s.%s" b.Suite.name metric)))
        [ "o3_o1_speedup"; "o1_o0_ratio" ])
    Suite.all;
  Printf.printf "  -O3/-O1 speedup across the suite: %s\n"
    (T.render_summary T.default "bench.table2.o3_o1_speedup")

(* ---------- Fig 9 ---------- *)

let fig9 () =
  section "Fig 9: distribution of per-operator -O1 mapping times (seconds)";
  (* Per-op mapping times go through the metrics registry; the printed
     summary and bars are rendered from it, not from an ad-hoc list. *)
  List.iter
    (fun b ->
      let r = evaluate b in
      let app = List.assoc B.O1 r.apps in
      let times = List.filter (fun t -> t > 0.0) (List.map snd app.B.report.B.per_op_seconds) in
      if times <> [] then begin
        let name = "bench.o1_op_seconds." ^ b.Suite.name in
        let h = T.histogram T.default name in
        List.iter (T.observe h) times;
        Printf.printf "%-18s %s\n" b.Suite.paper_name (T.render_summary T.default name);
        List.iter print_endline (T.render_histogram ~bins:6 T.default name)
      end
      else print_endline (b.Suite.paper_name ^ "  (all from cache this run)"))
    Suite.all;
  print_endline
    "paper shape: per-page compiles spread 600-1200 s with a tail; the worst page sets -O1 wall time."

(* ---------- Table 3 ---------- *)

let ms_str ms =
  if ms >= 1000.0 then Printf.sprintf "%.1f s" (ms /. 1000.0)
  else if ms >= 1.0 then Printf.sprintf "%.2f ms" ms
  else Printf.sprintf "%.0f us" (ms *. 1000.0)

let table3 () =
  section "Table 3: performance (Fmax and time per input frame)";
  let header = [ "Benchmark"; "Vitis"; "-O3"; "-O1"; "-O0"; "X86 host"; "Vitis Emu (modeled)" ] in
  let rows =
    List.map
      (fun b ->
        let r = evaluate b in
        let cell level =
          let run = List.assoc level r.runs in
          Printf.sprintf "%.0fMHz %s" run.R.perf.R.fmax_mhz (ms_str run.R.perf.R.ms_per_input)
        in
        [
          b.Suite.paper_name;
          cell B.Vitis;
          cell B.O3;
          cell B.O1;
          cell B.O0;
          ms_str (r.host_seconds *. 1000.0);
          ms_str (r.host_seconds *. 1000.0 *. R.emulation_slowdown);
        ])
      Suite.all
  in
  print_endline (Table.render ~header rows);
  (* Slowdowns and check verdicts also go through the registry and are
     rendered from it; the counter equals the suite size when all
     functional checks pass. *)
  let checks_ok = T.counter T.default "bench.table3.checks_ok" in
  List.iter
    (fun b ->
      let r = evaluate b in
      let ms level = (List.assoc level r.runs).R.perf.R.ms_per_input in
      let set metric v =
        T.set_gauge (T.gauge T.default (Printf.sprintf "bench.table3.%s.%s" b.Suite.name metric)) v
      in
      set "o1_o3_slowdown" (ms B.O1 /. ms B.O3);
      set "o0_o3_slowdown" (ms B.O0 /. ms B.O3);
      if r.ok then T.incr checks_ok)
    Suite.all;
  List.iter
    (fun b ->
      List.iter
        (fun metric ->
          Option.iter
            (fun line -> print_endline ("  " ^ line))
            (T.render_metric T.default (Printf.sprintf "bench.table3.%s.%s" b.Suite.name metric)))
        [ "o1_o3_slowdown"; "o0_o3_slowdown" ])
    Suite.all;
  Option.iter
    (fun line -> print_endline ("  " ^ line))
    (T.render_metric T.default "bench.table3.checks_ok");
  print_endline
    "paper shape: -O3 comparable to Vitis (sometimes faster); -O1 1.5-10x slower; -O0 3-5 orders slower."

(* ---------- Table 4 ---------- *)

let table4 () =
  section "Table 4: area consumption";
  let header = [ "Benchmark"; "flow"; "LUT"; "BRAM18"; "DSP"; "pages" ] in
  let rows =
    List.concat_map
      (fun b ->
        let r = evaluate b in
        List.map
          (fun (level, app) ->
            match Pld_core.Report.area_row app with
            | _ :: rest -> r.bench.Suite.paper_name :: B.level_name level :: rest
            | [] -> [])
          r.apps)
      Suite.all
  in
  print_endline (Table.render ~header rows);
  print_endline
    "paper shape: -O3 > Vitis (stitching FIFOs), -O1 > -O3 (leaf interfaces); -O0 charges a full softcore per page."

(* ---------- Fig 10 ---------- *)

let fig10 () =
  section
    "Fig 10: speedup with ONE operator on a softcore (-O0) and the rest on pages (-O1), vs all--O0";
  List.iter
    (fun b ->
      let inputs = b.Suite.workload () in
      let all_o0 = R.run (compile b B.O0) ~inputs in
      let base_ms = all_o0.R.perf.R.ms_per_input in
      let g = b.Suite.graph hw in
      let name = "bench.fig10_speedup." ^ b.Suite.name in
      let h = T.histogram T.default name in
      List.iter
        (fun (i : Pld_ir.Graph.instance) ->
          let mixed = Pld_ir.Graph.retarget g i.inst_name Pld_ir.Graph.Riscv in
          let app = B.compile ~cache fp mixed ~level:B.O1 in
          let r = R.run app ~inputs in
          T.observe h (base_ms /. r.R.perf.R.ms_per_input))
        g.Pld_ir.Graph.instances;
      Printf.printf "%-18s speedup over all--O0: %s\n%!" b.Suite.paper_name
        (T.render_summary T.default name))
    Suite.all;
  print_endline
    "paper shape: ~1x when the softcore operator is the bottleneck, approaching the all--O1 gain otherwise."

(* ---------- Fig 11 ---------- *)

let fig11 () =
  section "Fig 11: performance vs compile time (normalized to the Vitis flow; log-log in the paper)";
  let header = [ "Benchmark"; "flow"; "compile s"; "norm perf" ] in
  let rows =
    List.concat_map
      (fun b ->
        let r = evaluate b in
        let vitis_ms = (List.assoc B.Vitis r.runs).R.perf.R.ms_per_input in
        List.map
          (fun (level, (app : B.app)) ->
            let run = List.assoc level r.runs in
            [
              b.Suite.paper_name;
              B.level_name level;
              Printf.sprintf "%.2f" (total_of level app);
              Printf.sprintf "%.3g" (vitis_ms /. run.R.perf.R.ms_per_input);
            ])
          r.apps)
      Suite.all
  in
  print_endline (Table.render ~header rows);
  print_endline "paper shape: three clusters — seconds @ ~1e-4, minutes @ ~1e-1, hours @ 1."

(* ---------- Eq 1 ablation: page-size sweep ---------- *)

let eq1 () =
  section "Eq 1 ablation: page size vs efficiency (optical flow operator set)";
  let g = (Suite.find "optical").Suite.graph hw in
  let areas =
    List.map
      (fun (i : Pld_ir.Graph.instance) ->
        (N.total_res (Pld_hls.Hls_compile.compile i.op).Pld_hls.Hls_compile.netlist).N.luts)
      g.Pld_ir.Graph.instances
  in
  let leaf = Pld_core.Assign.leaf_interface_res.N.luts in
  let link_per_endpoint = 31 in
  let header = [ "page LUTs"; "pages used"; "efficiency" ] in
  let rows =
    List.map
      (fun page_luts ->
        if List.exists (fun a -> a + leaf > page_luts) areas then
          [ string_of_int page_luts; "-"; "does not fit: decompose operators" ]
        else begin
          let pages = ref [] in
          List.iter
            (fun a ->
              let need = a + leaf in
              match List.find_opt (fun r -> !r + need <= page_luts) !pages with
              | Some r -> r := !r + need
              | None -> pages := ref need :: !pages)
            areas;
          let used = List.length !pages in
          let eff =
            float_of_int (List.fold_left ( + ) 0 areas)
            /. float_of_int (used * (page_luts + link_per_endpoint + leaf))
          in
          [ string_of_int page_luts; string_of_int used; Printf.sprintf "%.2f" eff ]
        end)
      [ 256; 512; 1024; 1344; 2048; 4096 ]
  in
  print_endline (Table.render ~header rows);
  print_endline
    "paper: ~18k-LUT pages give ~95% efficiency before fragmentation; tiny pages pay leaf+link overhead, huge pages fragment."

(* ---------- NoC payload-width sweep ---------- *)

let noc_sweep () =
  section "Ablation: linking-network payload width vs -O1 frame time (optical flow)";
  let b = Suite.find "optical" in
  let inputs = b.Suite.workload () in
  let app = compile b B.O1 in
  let base = Pld_kpn.Run_graph.run (b.Suite.graph hw) ~inputs in
  let links = R.noc_links app base.Pld_kpn.Run_graph.channel_stats in
  let header = [ "payload bits"; "NoC drain cycles"; "frame ms @200MHz" ] in
  let rows =
    List.map
      (fun width ->
        let scale tokens = ((tokens * 32) + width - 1) / width in
        let scaled =
          List.map
            (fun (l : Pld_noc.Traffic.link) -> { l with Pld_noc.Traffic.tokens = scale l.Pld_noc.Traffic.tokens })
            links
        in
        let net = Pld_noc.Bft.create ~leaves:32 () in
        let r = Pld_noc.Traffic.replay net scaled in
        [
          string_of_int width;
          string_of_int r.Pld_noc.Traffic.cycles;
          Printf.sprintf "%.3f" (float_of_int r.Pld_noc.Traffic.cycles /. 200_000.0);
        ])
      [ 16; 32; 64; 128 ]
  in
  print_endline (Table.render ~header rows);
  print_endline "wider links trade overlay area for -O1 bandwidth (the design space of §4.3)."

(* ---------- incremental recompile ---------- *)

let incremental () =
  section "Ablation: incremental recompilation (edit one operator of optical flow)";
  (* A persistent content-addressed store; each build opens a fresh cache
     handle on the same directory, i.e. simulates a fresh pldc process
     finding the previous run's artifacts on disk. *)
  let dir = ".pld-bench-cache" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let b = Suite.find "optical" in
  let g = b.Suite.graph hw in
  let full = B.compile ~cache:(B.create_cache ~dir ()) fp g ~level:B.O1 in
  Printf.printf "cold build:    %d ops compiled, cluster wall %.2fs (model), measured %.4fs [%s]\n"
    full.B.report.B.recompiled full.B.report.B.parallel_seconds full.B.report.B.wall_seconds
    (Pld_core.Report.cache_summary full.B.report);
  let noop = B.compile ~cache:(B.create_cache ~dir ()) fp g ~level:B.O1 in
  Printf.printf "fresh process: %d ops compiled, measured %.4fs (%d cache hits, all from disk) [%s]\n"
    noop.B.report.B.recompiled noop.B.report.B.wall_seconds noop.B.report.B.cache_hits
    (Pld_core.Report.cache_summary noop.B.report);
  (* Edit flow_calc: add a debug printf — source hash changes. *)
  let edited =
    {
      g with
      Pld_ir.Graph.instances =
        List.map
          (fun (i : Pld_ir.Graph.instance) ->
            if i.inst_name = "flow_calc" then
              { i with op = { i.op with Pld_ir.Op.body = i.op.Pld_ir.Op.body @ [ Pld_ir.Op.Printf ("frame done", []) ] } }
            else i)
          g.Pld_ir.Graph.instances;
    }
  in
  let inc = B.compile ~cache:(B.create_cache ~dir ()) fp edited ~level:B.O1 in
  Printf.printf
    "edit one op:   %d op compiled, cluster wall %.2fs (%d cache hits) [%s] -- the edit-compile-debug loop of §6\n"
    inc.B.report.B.recompiled inc.B.report.B.parallel_seconds inc.B.report.B.cache_hits
    (Pld_core.Report.cache_summary inc.B.report);
  (* -O3 has no per-operator cache to hide behind: the monolithic P&R
     reruns on any edit. Delta P&R is what keeps the edit loop fast
     there — recompile each benchmark after a one-operator touch,
     seeding placement and routing with the previous build. *)
  section "Delta P&R: recompile after a one-operator edit at -O3";
  let pnr_seconds (app : B.app) =
    let p = (B.monolithic_exn app).Pld_core.Flow.pnr3 in
    p.Pld_pnr.Pnr.place_seconds +. p.Pld_pnr.Pnr.route_seconds +. p.Pld_pnr.Pnr.sta_seconds
  in
  let header =
    [ "benchmark"; "scratch pnr"; "delta pnr"; "speedup"; "kept/moved"; "rerouted"; "path" ]
  in
  let rows =
    List.map
      (fun (b : Suite.bench) ->
        let g = b.Suite.graph hw in
        let scratch = B.compile ~cache:(B.create_cache ()) fp g ~level:B.O3 in
        let victim = (List.hd g.Pld_ir.Graph.instances).Pld_ir.Graph.inst_name in
        let edited = Option.get (Pld_ir.Graph.touch_op g victim) in
        let delta = B.compile ~cache:(B.create_cache ()) ~previous:scratch fp edited ~level:B.O3 in
        let ss = pnr_seconds scratch and ds = pnr_seconds delta in
        let stats = (B.monolithic_exn delta).Pld_core.Flow.pnr3.Pld_pnr.Pnr.delta in
        let kept, moved, rerouted, path =
          match stats with
          | Some d -> (
              ( d.Pld_pnr.Pnr.cells_kept,
                d.Pld_pnr.Pnr.cells_moved,
                d.Pld_pnr.Pnr.nets_rerouted,
                match d.Pld_pnr.Pnr.fallback with
                | None -> "delta"
                | Some r -> "scratch (" ^ r ^ ")" ))
          | None -> (0, 0, 0, "scratch")
        in
        [
          b.Suite.name;
          Printf.sprintf "%.3fs" ss;
          Printf.sprintf "%.3fs" ds;
          Printf.sprintf "%.1fx" (ss /. Float.max 1e-9 ds);
          Printf.sprintf "%d/%d" kept moved;
          string_of_int rerouted;
          path;
        ])
      Suite.all
  in
  print_endline (Table.render ~header rows);
  print_endline
    "touching one operator reuses the previous placement and reroutes only the ripped-up nets."

(* ---------- executor parallelism ---------- *)

let executor () =
  section "Ablation: executor worker domains (-j) on a cold 6-operator -O1 compile";
  let b = Suite.find "spam" in
  let g = b.Suite.graph hw in
  (* Pace the jobs so each sleeps off its modeled backend-tool time (a stand-in
     for blocking on a vendor p&r invocation); scaled so -j1 takes ~1 s. *)
  let probe = B.compile ~cache:(B.create_cache ()) fp g ~level:B.O1 in
  let pace = 1.0 /. Float.max 1e-6 probe.B.report.B.serial_seconds in
  (* Per-width wall clocks are registry gauges rendered back out, so
     the ablation's numbers land in --metrics-out exports too. *)
  List.iter
    (fun jobs ->
      let app = B.compile ~cache:(B.create_cache ()) ~jobs ~pace fp g ~level:B.O1 in
      let name = Printf.sprintf "bench.executor.j%d.wall_seconds" jobs in
      T.set_gauge (T.gauge T.default name) app.B.report.B.wall_seconds;
      Printf.printf "  (model: serial %.2fs, 22-worker cluster %.2fs)\n"
        app.B.report.B.serial_seconds app.B.report.B.parallel_seconds;
      Option.iter (fun line -> print_endline ("  " ^ line)) (T.render_metric T.default name))
    [ 1; 2; 4 ];
  print_endline
    "while a job waits on its (modeled) backend tool the domain sleeps, so extra jobs overlap the waits."

(* ---------- DFX load / link costs ---------- *)

let loading () =
  section "Ablation: bitstream load and link costs (optical flow)";
  let card = Pld_platform.Card.create () in
  let app = compile (Suite.find "optical") B.O1 in
  print_endline (Pld_core.Loader.describe_artifacts app);
  let seconds = (Pld_core.Loader.deploy card app).Pld_core.Loader.seconds in
  Printf.printf
    "total load+link: %.4f s (partial bitstreams are KB-scale; linking is a few packets per page)\n"
    seconds;
  let mono = compile (Suite.find "optical") B.O3 in
  let card2 = Pld_platform.Card.create () in
  let s2 = (Pld_core.Loader.deploy card2 mono).Pld_core.Loader.seconds in
  Printf.printf "monolithic kernel load: %.4f s\n" s2

(* ---------- fault recovery ---------- *)

let recovery () =
  section "Ablation: fault recovery - relink onto a spare page vs a full recompile (optical flow)";
  let b = Suite.find "optical" in
  let app = compile b B.O1 in
  (* Mark the first placed page defective: every load of it garbles,
     so the deploy must retry, give up, and relink onto a spare. *)
  let victim_inst, victim_page = List.hd app.B.assignment in
  let spec = { Pld_faults.Fault.empty with Pld_faults.Fault.defective_pages = [ victim_page ] } in
  let faults = Pld_faults.Fault.create ~seed:7 spec in
  let card = Pld_platform.Card.create ~faults () in
  let dr = Pld_core.Loader.deploy ~faults card app in
  List.iter print_endline (Pld_core.Report.recovery_lines dr);
  let recovery_seconds = dr.Pld_core.Loader.seconds in
  let clean_card = Pld_platform.Card.create () in
  let clean = Pld_core.Loader.deploy clean_card app in
  let rebuild = B.compile ~cache:(B.create_cache ()) fp (b.Suite.graph hw) ~level:B.O1 in
  let mono = compile b B.O3 in
  Printf.printf
    "%-34s %10.4f s\n%-34s %10.4f s\n%-34s %10.4f s\n%-34s %10.4f s\n"
    "fault-free deploy" clean.Pld_core.Loader.seconds
    (Printf.sprintf "recovery deploy (%s: %d -> %d)" victim_inst victim_page
       (List.assoc victim_inst dr.Pld_core.Loader.app.B.assignment))
    recovery_seconds "cold -O1 recompile (cluster)" rebuild.B.report.B.parallel_seconds
    "-O3 monolithic recompile" mono.B.report.B.serial_seconds;
  Printf.printf
    "-> recovery pays one page-scoped relink (about the -O1 critical path, HLS reused) on the \
     deploy clock - not the %0.1fx costlier monolithic rebuild a fixed-function flow would need\n"
    (mono.B.report.B.serial_seconds /. Float.max 1e-9 recovery_seconds)

(* ---------- future work: overlay processor menu ---------- *)

let softcore_sweep () =
  section "Future-work ablation (Sec 9): softcore overlay menu (-O0 on PicoRV32 vs a pipelined core)";
  let b = Suite.find "spam" in
  let g = b.Suite.graph hw in
  let inputs = b.Suite.workload () in
  Printf.printf "%-12s %-14s %-12s %s\n" "profile" "worst cycles" "ms/frame" "check";
  let run_profile profile =
    let app = B.compile ~cache fp g ~level:B.O0 in
    let r = R.run ~core_profile:profile app ~inputs in
    let worst = List.fold_left (fun acc (_, c) -> max acc c) 0 r.R.softcore_cycles in
    (worst, b.Suite.check ~inputs r.R.outputs)
  in
  List.iter
    (fun profile ->
      let worst, ok = run_profile profile in
      Printf.printf "%-12s %-14d %-12.4f %b\n" profile.Pld_riscv.Cpu.profile_name worst
        (float_of_int worst /. 200_000.0) ok)
    [ Pld_riscv.Cpu.picorv32; Pld_riscv.Cpu.pipelined ];
  print_endline
    "the paper (Sec 7.4): \"performance can easily be improved by replacing [the PicoRV] with a higher frequency, pipelined softcore\"."

(* ---------- future work: dedicated-wire linking ---------- *)

let linking_alt () =
  section "Future-work ablation (Sec 7.5/9): BFT packet linking vs dedicated wires (Relay Station)";
  let b = Suite.find "optical" in
  let inputs = b.Suite.workload () in
  let app = compile b B.O1 in
  let fr = Pld_kpn.Run_graph.run (b.Suite.graph hw) ~inputs in
  let links = R.noc_links app fr.Pld_kpn.Run_graph.channel_stats in
  let net = Pld_noc.Bft.create ~leaves:(Pld_core.Flow.noc_leaves fp) () in
  let bft_cfg = Pld_noc.Traffic.config_cycles net (List.filter Pld_noc.Traffic.active links) in
  let bft = Pld_noc.Traffic.replay net links in
  let relay = Pld_noc.Relay.replay fp links in
  Printf.printf "BFT packet network:  %d cycles/frame, link = %d cycles of config packets, overlay reused as-is\n"
    bft.Pld_noc.Traffic.cycles bft_cfg;
  Printf.printf "%s\n" (Pld_noc.Relay.describe relay);
  Printf.printf "-> dedicated wires are %.1fx faster per frame but turn re-linking into a %0.2f s compile\n"
    (float_of_int bft.Pld_noc.Traffic.cycles /. float_of_int (max 1 relay.Pld_noc.Relay.cycles))
    relay.Pld_noc.Relay.relink_seconds

(* ---------- design-size scaling ---------- *)

let scaling () =
  section "Ablation (Sec 2.2/4.1): compile time vs design size - monolithic grows super-linearly, -O1 stays flat";
  let u32 = Pld_ir.Dtype.word in
  let stage name n =
    Pld_ir.Op.make ~name ~inputs:[ Pld_ir.Op.word_port "in" ] ~outputs:[ Pld_ir.Op.word_port "out" ]
      ~locals:[ Pld_ir.Op.scalar "x" (Pld_ir.Dtype.SInt 32); Pld_ir.Op.scalar "y" (Pld_ir.Dtype.SInt 32) ]
      [
        Pld_ir.Op.For
          {
            var = "i";
            lo = 0;
            hi = n;
            pipeline = true;
            body =
              [
                Pld_ir.Op.Read (Pld_ir.Op.LVar "x", "in");
                Pld_ir.Op.Assign
                  (Pld_ir.Op.LVar "y", Pld_ir.Expr.(Bin (Mul, Var "x", Bin (Add, Var "x", Var "y"))));
                Pld_ir.Op.Write ("out", Pld_ir.Expr.(Bin (Add, Var "y", Var "x")));
              ];
          };
      ]
  in
  let graph_of k =
    let chan i = if i = 0 then "cin" else if i = k then "cout" else Printf.sprintf "c%d" i in
    Pld_ir.Graph.make ~name:(Printf.sprintf "scale%d" k)
      ~channels:(List.init (k + 1) (fun i -> Pld_ir.Graph.channel (chan i)))
      ~instances:
        (List.init k (fun i ->
             Pld_ir.Graph.instance ~name:(Printf.sprintf "s%d" i) (stage (Printf.sprintf "s%d" i) 64)
               [ ("in", chan i); ("out", chan (i + 1)) ]))
      ~inputs:[ "cin" ] ~outputs:[ "cout" ]
  in
  ignore u32;
  let header = [ "operators"; "-O3 p&r s"; "-O1 slowest page p&r s"; "-O1 wall (22 workers)" ] in
  let rows =
    List.map
      (fun k ->
        let g = graph_of k in
        let o3 = B.compile fp g ~level:B.O3 in
        let o1 = B.compile fp g ~level:B.O1 in
        let o3_pnr = o3.B.report.B.phases.Pld_core.Flow.pnr in
        let worst_page =
          List.fold_left
            (fun acc (_, c) ->
              match c with
              | B.Hw_page h -> Float.max acc h.Pld_core.Flow.times.Pld_core.Flow.pnr
              | B.Soft_page _ -> acc)
            0.0 o1.B.operators
        in
        [
          string_of_int k;
          Printf.sprintf "%.3f" o3_pnr;
          Printf.sprintf "%.3f" worst_page;
          Printf.sprintf "%.2f" o1.B.report.B.parallel_seconds;
        ])
      [ 2; 4; 8; 16 ]
  in
  print_endline (Table.render ~header rows);
  print_endline
    "doubling the operator count grows the monolithic p&r super-linearly while the -O1 critical path (one page) is constant \
     - the separate-compilation mechanism of Sec 4.1."

(* ---------- machine-readable export ---------- *)

(* BENCH_<suite>.json: per benchmark and level the compile-time
   model's phase breakdown and serial/cluster seconds, cache traffic,
   and the frame-rate model's verdict. It carries no wall-clock
   measurement of a compile or a host run: measured seconds belong to
   the perf/ harness. CI archives it so the model's trajectory is
   diffable across commits. *)
let export_json () =
  section "Export: machine-readable benchmark results (BENCH_rosetta.json)";
  let level_entry r (level, (app : B.app)) =
    let rep = app.B.report in
    let p = rep.B.phases in
    let run = List.assoc level r.runs in
    let jobs_total = rep.B.cache_hits + rep.B.recompiled in
    Json.Obj
      [
        ("level", Json.String (B.level_name level));
        ( "compile",
          Json.Obj
            [
              ("hls_seconds", Json.Float p.Pld_core.Flow.hls);
              ("syn_seconds", Json.Float p.Pld_core.Flow.syn);
              ("pnr_seconds", Json.Float p.Pld_core.Flow.pnr);
              ("bitgen_seconds", Json.Float p.Pld_core.Flow.bitgen);
              ("overhead_seconds", Json.Float p.Pld_core.Flow.overhead);
              ("serial_seconds", Json.Float rep.B.serial_seconds);
              ("parallel_seconds", Json.Float rep.B.parallel_seconds);
              ("cache_hits", Json.Int rep.B.cache_hits);
              ("recompiled", Json.Int rep.B.recompiled);
              ( "cache_hit_rate",
                Json.Float
                  (if jobs_total = 0 then 0.0
                   else float_of_int rep.B.cache_hits /. float_of_int jobs_total) );
            ] );
        ( "perf",
          Json.Obj
            [
              ("fmax_mhz", Json.Float run.R.perf.R.fmax_mhz);
              ("ms_per_input", Json.Float run.R.perf.R.ms_per_input);
              ("frame_cycles", Json.Int run.R.perf.R.frame_cycles);
              ("bottleneck", Json.String run.R.perf.R.bottleneck);
            ] );
      ]
  in
  let bench_entry b =
    let r = evaluate b in
    Json.Obj
      [
        ("name", Json.String b.Suite.name);
        ("paper_name", Json.String b.Suite.paper_name);
        ("check_ok", Json.Bool r.ok);
        ("levels", Json.List (List.map (level_entry r) r.apps));
      ]
  in
  let doc =
    Json.Obj
      [
        ("suite", Json.String "rosetta");
        ("benchmarks", Json.List (List.map bench_entry Suite.all));
      ]
  in
  let file = "BENCH_rosetta.json" in
  Json.write_file ~pretty:true ~file doc;
  Printf.printf "wrote %s (%d benchmarks x 4 levels)\n" file (List.length Suite.all)

let all_experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig9", fig9);
    ("table3", table3);
    ("table4", table4);
    ("fig10", fig10);
    ("fig11", fig11);
    ("eq1", eq1);
    ("noc-sweep", noc_sweep);
    ("incremental", incremental);
    ("executor", executor);
    ("loading", loading);
    ("recovery", recovery);
    ("scaling", scaling);
    ("softcore-sweep", softcore_sweep);
    ("linking-alt", linking_alt);
    ("export-json", export_json);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let chosen =
    match args with
    | [] -> all_experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n all_experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s (have: %s)\n" n
                  (String.concat " " (List.map fst all_experiments));
                exit 2)
          names
  in
  Printf.printf "PLD benchmark harness -- %d experiment(s)\n" (List.length chosen);
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) chosen;
  Printf.printf "\nall experiments completed in %.1f s\n" (Unix.gettimeofday () -. t0)
