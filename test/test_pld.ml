open Pld_ir
open Pld_core
module Fp = Pld_fabric.Floorplan
module N = Pld_netlist.Netlist
module Telemetry = Pld_telemetry.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let u32 = Dtype.word
let fp = Fp.u50 ()

let doubler ?(name = "doubler") n =
  Op.make ~name ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
    ~locals:[ Op.scalar "x" u32 ]
    [
      Op.For
        {
          var = "i";
          lo = 0;
          hi = n;
          pipeline = true;
          body = [ Op.Read (Op.LVar "x", "in"); Op.Write ("out", Expr.(var "x" + var "x")) ];
        };
    ]

let pipeline ?(target = Graph.Hw { page_hint = None }) ?(n = 8) stages =
  let ops = List.init stages (fun i -> doubler ~name:(Printf.sprintf "stage%d" i) n) in
  let chan i = if i = 0 then "cin" else if i = stages then "cout" else Printf.sprintf "c%d" i in
  Graph.make ~name:"pipe"
    ~channels:(List.init (stages + 1) (fun i -> Graph.channel (chan i)))
    ~instances:
      (List.mapi (fun i op -> Graph.instance ~target ~name:op.Op.name op [ ("in", chan i); ("out", chan (i + 1)) ]) ops)
    ~inputs:[ "cin" ] ~outputs:[ "cout" ]

let inputs n = [ ("cin", List.init n (fun i -> Value.of_int u32 (i + 1))) ]

(* ---------- assignment ---------- *)

let test_assign_basic () =
  let demand = { N.luts = 100; ffs = 100; brams = 0; dsps = 0 } in
  let a =
    Assign.assign fp
      (List.init 5 (fun i -> (Printf.sprintf "op%d" i, Graph.Hw { page_hint = None }, demand)))
  in
  check_int "all assigned" 5 (List.length a);
  let pages = List.map snd a in
  check_int "distinct pages" 5 (List.length (List.sort_uniq compare pages))

let test_assign_honors_hint () =
  let demand = { N.luts = 100; ffs = 100; brams = 0; dsps = 0 } in
  let a = Assign.assign fp [ ("op", Graph.Hw { page_hint = Some 13 }, demand) ] in
  Alcotest.(check (list (pair string int))) "pinned" [ ("op", 13) ] a

let test_assign_no_fit () =
  let demand = { N.luts = 100_000; ffs = 0; brams = 0; dsps = 0 } in
  match Assign.assign fp [ ("big", Graph.Hw { page_hint = None }, demand) ] with
  | _ -> Alcotest.fail "expected No_fit"
  | exception Assign.No_fit _ -> ()

let test_assign_bram_heavy_gets_bram_page () =
  let demand = { N.luts = 100; ffs = 100; brams = 7; dsps = 0 } in
  let a = Assign.assign fp [ ("memop", Graph.Hw { page_hint = None }, demand) ] in
  let page = Fp.find_page fp (List.assoc "memop" a) in
  check_bool "page has BRAM capacity" true (page.Fp.capacity.N.brams >= 7)

(* ---------- builds ---------- *)

let test_compile_o1 () =
  let app = Build.compile fp (pipeline 3) ~level:Build.O1 in
  check_int "three operators" 3 (List.length app.Build.operators);
  check_int "no cache hits on first build" 0 app.Build.report.Build.cache_hits;
  List.iter
    (fun (_, c) ->
      match c with
      | Build.Hw_page h -> check_bool "routed" true (Pld_pnr.Pnr.routed_ok h.Flow.pnr)
      | Build.Soft_page _ -> Alcotest.fail "expected hardware page")
    app.Build.operators

let test_compile_o0_forces_softcores () =
  let app = Build.compile fp (pipeline 3) ~level:Build.O0 in
  List.iter
    (fun (_, c) ->
      match c with
      | Build.Soft_page _ -> ()
      | Build.Hw_page _ -> Alcotest.fail "expected softcore")
    app.Build.operators

let test_compile_mixed_targets () =
  let g = Graph.retarget (pipeline 3) "stage1" Graph.Riscv in
  let app = Build.compile fp g ~level:Build.O1 in
  let kinds = List.map (fun (n, c) -> (n, match c with Build.Hw_page _ -> "hw" | Build.Soft_page _ -> "soft")) app.Build.operators in
  Alcotest.(check (list (pair string string)))
    "pragma picks implementation"
    [ ("stage0", "hw"); ("stage1", "soft"); ("stage2", "hw") ]
    kinds

let test_incremental_cache () =
  let cache = Build.create_cache () in
  let g = pipeline 4 in
  let app1 = Build.compile ~cache fp g ~level:Build.O1 in
  check_int "first build compiles all" 4 app1.Build.report.Build.recompiled;
  (* Rebuild unchanged: everything hits. *)
  let app2 = Build.compile ~cache fp g ~level:Build.O1 in
  check_int "no recompiles" 0 app2.Build.report.Build.recompiled;
  check_int "all hits" 4 app2.Build.report.Build.cache_hits;
  check_bool "cached build is fast" true (app2.Build.report.Build.serial_seconds < 0.001);
  (* Change one operator: exactly one recompile. *)
  let changed = doubler ~name:"stage2" 9 in
  let g' =
    {
      g with
      Graph.instances =
        List.map
          (fun (i : Graph.instance) -> if i.inst_name = "stage2" then { i with op = changed } else i)
          g.Graph.instances;
    }
  in
  let app3 = Build.compile ~cache fp g' ~level:Build.O1 in
  check_int "one recompile" 1 app3.Build.report.Build.recompiled;
  check_int "three hits" 3 app3.Build.report.Build.cache_hits

(* Replace one stage's operator body (a source edit) in a pipeline. *)
let edit_stage g name n' =
  {
    g with
    Graph.instances =
      List.map
        (fun (i : Graph.instance) ->
          if i.inst_name = name then { i with op = doubler ~name n' } else i)
        g.Graph.instances;
  }

let test_persistent_incremental () =
  (* The acceptance story of the engine: a warm pldc rerun after a
     one-operator edit recompiles exactly one page. Every build opens a
     fresh cache handle on the same directory — a simulated fresh
     process, so all carrying happens through the on-disk store. *)
  let dir = ".test-build-cache" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let g = pipeline 6 in
  let cold = Build.compile ~cache:(Build.create_cache ~dir ()) fp g ~level:Build.O1 in
  check_int "cold compiles all six" 6 cold.Build.report.Build.recompiled;
  check_int "cold has no hits" 0 cold.Build.report.Build.cache_hits;
  (* Unchanged rerun in a fresh process: everything from disk. *)
  let warm = Build.compile ~cache:(Build.create_cache ~dir ()) fp g ~level:Build.O1 in
  check_int "warm recompiles nothing" 0 warm.Build.report.Build.recompiled;
  check_int "warm all hits" 6 warm.Build.report.Build.cache_hits;
  (* One-operator edit in yet another fresh process. *)
  let g' = edit_stage g "stage3" 9 in
  let telemetry = Telemetry.create () in
  let inc = Build.compile ~cache:(Build.create_cache ~dir ()) ~telemetry fp g' ~level:Build.O1 in
  check_int "exactly one recompile" 1 inc.Build.report.Build.recompiled;
  check_int "five hits" 5 inc.Build.report.Build.cache_hits;
  check_int "one store write" 1 inc.Build.report.Build.stored;
  (* The per-kind tally agrees, kinds in submission order (HLS and
     assignment are never cached), and the hits came from the store,
     not this process's tables. *)
  Alcotest.(check (list (triple string int int)))
    "by kind: 6 hls, assign, then 5 page hits + 1 miss"
    [ ("hls", 0, 6); ("assign", 0, 1); (Build.kind_page, 5, 1) ]
    inc.Build.report.Build.by_kind;
  check_int "hits served from disk" 5
    (List.length
       (List.filter
          (fun (s : Telemetry.span) ->
            s.Telemetry.name = "cache-hit" && List.assoc_opt "source" s.Telemetry.attrs = Some "disk")
          (Telemetry.spans telemetry)));
  (* The artifact is current: the edited stage's bitstream differs from
     the cold build's. *)
  let page_of (app : Build.app) name =
    match List.assoc name app.Build.operators with
    | Build.Hw_page h -> h
    | Build.Soft_page _ -> Alcotest.fail "expected hardware page"
  in
  check_bool "edited page recompiled against new source" false
    ((page_of cold "stage3").Flow.op = (page_of inc "stage3").Flow.op);
  (* Phase totals cover only recompiled jobs: the warm build ran no
     tool phases, and the edit's phases are the one page's. *)
  let zero = { Flow.hls = 0.0; syn = 0.0; pnr = 0.0; bitgen = 0.0; overhead = 0.0 } in
  check_bool "warm build has no phase time" true (warm.Build.report.Build.phases = zero);
  check_bool "edit's phases are the recompiled page's" true
    (inc.Build.report.Build.phases = (page_of inc "stage3").Flow.times)

let test_cache_stats_per_kind () =
  let cache = Build.create_cache () in
  let g = Graph.retarget (pipeline 3) "stage1" Graph.Riscv in
  ignore (Build.compile ~cache fp g ~level:Build.O1);
  ignore (Build.compile ~cache fp g ~level:Build.O1);
  let stats k = Option.get (List.assoc_opt k (List.map (fun (k, h, m) -> (k, (h, m))) (Build.cache_stats cache))) in
  Alcotest.(check (pair int int)) "pages: 2 hit, 2 miss" (2, 2) (stats Build.kind_page);
  Alcotest.(check (pair int int)) "softcore: 1 hit, 1 miss" (1, 1) (stats Build.kind_softcore)

let test_kind_partition_no_collision () =
  (* The same operator compiled as a page and as a softcore produces two
     distinct cache entries even if their keys collide — kinds partition
     the cache, so a softcore image can never be returned for a page. *)
  let cache = Build.create_cache () in
  let g = pipeline 2 in
  ignore (Build.compile ~cache fp g ~level:Build.O1);
  ignore (Build.compile ~cache fp (Graph.retarget_all g Graph.Riscv) ~level:Build.O1);
  check_int "four entries, two kinds" 4 (Build.cache_size cache);
  let app = Build.compile ~cache fp g ~level:Build.O1 in
  List.iter
    (fun (_, c) ->
      match c with
      | Build.Hw_page _ -> ()
      | Build.Soft_page _ -> Alcotest.fail "softcore artifact returned for a page build")
    app.Build.operators

let test_executor_determinism () =
  (* A sequential (-j1) and a parallel (-j4) cold build of the same graph
     produce identical artifacts and reports, modulo timing: every
     seconds field (even the "modeled" tool times) is derived from
     measured simulator runtime and varies run to run, so determinism
     means the semantic payload — netlists, placements, bitstreams,
     assignment, trace structure — is bit-identical. *)
  let build jobs =
    let telemetry = Telemetry.create () in
    (Build.compile ~cache:(Build.create_cache ()) ~jobs ~telemetry fp (pipeline 6) ~level:Build.O1, telemetry)
  in
  let (a, a_tele) = build 1 and (b, b_tele) = build 4 in
  let semantic (app : Build.app) =
    List.map
      (fun (name, c) ->
        match c with
        | Build.Hw_page h ->
            let p = h.Flow.pnr in
            ( name,
              `Hw
                ( h.Flow.op,
                  h.Flow.page,
                  h.Flow.impl.Pld_hls.Hls_compile.netlist,
                  h.Flow.impl.Pld_hls.Hls_compile.perf,
                  p.Pld_pnr.Pnr.placement,
                  (p.Pld_pnr.Pnr.bitstream.Pld_pnr.Bitgen.frames,
                   p.Pld_pnr.Pnr.bitstream.Pld_pnr.Bitgen.crc),
                  (p.Pld_pnr.Pnr.route.Pld_pnr.Route.routes,
                   p.Pld_pnr.Pnr.route.Pld_pnr.Route.net_delay_ns),
                  p.Pld_pnr.Pnr.timing ) )
        | Build.Soft_page s ->
            (name, `Soft (s.Flow.op0, s.Flow.page0, s.Flow.program, s.Flow.elf)))
      app.Build.operators
  in
  check_bool "identical semantic artifacts" true (semantic a = semantic b);
  Alcotest.(check (list (pair string int))) "identical assignment" a.Build.assignment b.Build.assignment;
  check_int "same recompiles" a.Build.report.Build.recompiled b.Build.report.Build.recompiled;
  Alcotest.(check (list (triple string int int)))
    "same per-kind stats" a.Build.report.Build.by_kind b.Build.report.Build.by_kind;
  (* Spans modulo timing, tracks (worker indices), the run id, and the
     graph span's worker count. *)
  let canonical tele =
    List.sort compare
      (List.filter_map
         (fun (s : Telemetry.span) ->
           if s.Telemetry.name = "graph" then None
           else
             Some
               (s.Telemetry.cat, s.Telemetry.name, s.Telemetry.dur_us = None,
                List.filter (fun (k, _) -> k <> "run") s.Telemetry.attrs))
         (Telemetry.spans tele))
  in
  check_bool "identical traces modulo timing" true (canonical a_tele = canonical b_tele)

let test_parallel_jobs_faster () =
  (* Paced so each job sleeps off its modeled tool time: a paced job is
     blocked, not computing, so four domains each take jobs even on one
     core. Checked by structure, not wall-clock: on a private sink the
     job spans sit on four distinct worker tracks at -j4 and on one at
     -j1. *)
  let g = pipeline 6 in
  let probe = Build.compile ~cache:(Build.create_cache ()) fp g ~level:Build.O1 in
  let pace = 0.6 /. Float.max 1e-6 probe.Build.report.Build.serial_seconds in
  let tracks jobs =
    let telemetry = Telemetry.create () in
    ignore (Build.compile ~cache:(Build.create_cache ()) ~jobs ~pace ~telemetry fp g ~level:Build.O1);
    List.filter_map
      (fun (s : Telemetry.span) ->
        if s.Telemetry.cat = "engine" && s.Telemetry.name <> "graph" then Some s.Telemetry.track
        else None)
      (Telemetry.spans telemetry)
    |> List.sort_uniq compare
  in
  check_int "-j1 runs every job on one track" 1 (List.length (tracks 1));
  check_int "-j4 runs the jobs on four tracks" 4 (List.length (tracks 4))

let test_o1_parallel_faster_than_serial () =
  let app = Build.compile fp (pipeline 5) ~level:Build.O1 in
  let r = app.Build.report in
  check_bool "makespan <= serial" true (r.Build.parallel_seconds <= r.Build.serial_seconds +. 1e-9)

(* ---------- execution ---------- *)

let expected n = List.init n (fun i -> 2 * (i + 1))

let run_level level =
  let g = pipeline ~n:512 1 in
  let app = Build.compile fp g ~level in
  let r = Runner.run app ~inputs:(inputs 512) in
  (List.map Value.to_int (List.assoc "cout" r.Runner.outputs), r)

let test_all_levels_agree () =
  List.iter
    (fun level ->
      let out, _ = run_level level in
      Alcotest.(check (list int)) (Build.level_name level) (expected 512) out)
    [ Build.O0; Build.O1; Build.O3; Build.Vitis ]

let test_o0_orders_slower () =
  let _, r0 = run_level Build.O0 in
  let _, r3 = run_level Build.O3 in
  let slow = r0.Runner.perf.Runner.ms_per_input /. r3.Runner.perf.Runner.ms_per_input in
  check_bool
    (Printf.sprintf "softcore 100x+ slower (got %.1fx: %.5f vs %.5f ms)" slow
       r0.Runner.perf.Runner.ms_per_input r3.Runner.perf.Runner.ms_per_input)
    true (slow > 100.0)

let test_o1_between () =
  let _, r1 = run_level Build.O1 in
  let _, r3 = run_level Build.O3 in
  let _, r0 = run_level Build.O0 in
  check_bool "O1 slower than O3" true
    (r1.Runner.perf.Runner.ms_per_input >= r3.Runner.perf.Runner.ms_per_input);
  check_bool "O1 much faster than O0" true
    (r0.Runner.perf.Runner.ms_per_input > 10.0 *. r1.Runner.perf.Runner.ms_per_input)

let test_mixed_execution_matches () =
  let g = Graph.retarget (pipeline ~n:6 3) "stage1" Graph.Riscv in
  let app = Build.compile fp g ~level:Build.O1 in
  let r = Runner.run app ~inputs:(inputs 6) in
  Alcotest.(check (list int)) "mixed pipeline output"
    (List.init 6 (fun i -> 8 * (i + 1)))
    (List.map Value.to_int (List.assoc "cout" r.Runner.outputs));
  check_int "one softcore" 1 (List.length r.Runner.softcore_cycles)

(* An underfed run wedges at every level, and every level reports it
   the same way: the watchdog's diagnosis, never a bare scheduler
   exception. *)
let test_underfed_stalls_at_every_level () =
  List.iter
    (fun level ->
      let where = Build.level_name level in
      let app = Build.compile fp (pipeline ~n:8 3) ~level in
      match Runner.run app ~inputs:(inputs 2) with
      | _ -> Alcotest.fail (where ^ ": expected Stalled")
      | exception Runner.Stalled d ->
          Alcotest.(check (list string))
            (where ^ ": every stage blocked") [ "stage0"; "stage1"; "stage2" ]
            (List.sort compare d.Runner.blocked);
          Alcotest.(check (list string))
            (where ^ ": every channel reported") [ "c1"; "c2"; "cin"; "cout" ]
            (List.map (fun (name, _, _) -> name) d.Runner.channels))
    [ Build.O0; Build.O1; Build.O3 ]

(* Profiling observes a run and changes none of its results: at every
   level a profiled run reports the unprofiled outputs, softcore cycles
   and perf record. The pipeline's middle stage is a softcore, so its
   -O1 build is mixed; the Rosetta bench's -O1 build is all hardware. *)
let test_profiling_changes_no_result () =
  let spam = Pld_rosetta.Suite.find "spam" in
  let cases =
    [
      ("pipe", Graph.retarget (pipeline ~n:64 3) "stage1" Graph.Riscv, inputs 64);
      ("spam", spam.Pld_rosetta.Suite.graph (Graph.Hw { page_hint = None }), spam.Pld_rosetta.Suite.workload ());
    ]
  in
  List.iter
    (fun (name, g, inputs) ->
      List.iter
        (fun level ->
          let where = name ^ " " ^ Build.level_name level in
          let app = Build.compile fp g ~level in
          let plain = Runner.run app ~inputs in
          let profiled = Runner.run ~pmu:(Pld_telemetry.Pmu.create ()) app ~inputs in
          check_bool (where ^ ": outputs") true (plain.Runner.outputs = profiled.Runner.outputs);
          Alcotest.(check (list (pair string int)))
            (where ^ ": softcore cycles") plain.Runner.softcore_cycles profiled.Runner.softcore_cycles;
          check_bool (where ^ ": perf") true (plain.Runner.perf = profiled.Runner.perf))
        [ Build.O0; Build.O1; Build.O3 ])
    cases

(* ---------- card + loader ---------- *)

let test_deploy_o1 () =
  let card = Pld_platform.Card.create () in
  let app = Build.compile fp (pipeline 3) ~level:Build.O1 in
  let dr = Loader.deploy card app in
  check_bool "load time positive" true (dr.Loader.seconds > 0.0);
  check_bool "no recovery events fault-free" true (dr.Loader.recovery = []);
  check_bool "overlay loaded" true (Pld_platform.Card.l1 card = Pld_platform.Card.Overlay_loaded);
  check_int "three pages occupied" 3 (List.length (Pld_platform.Card.loaded_pages card));
  (* Links programmed in the NoC. *)
  let net = Pld_platform.Card.noc card in
  check_bool "routes installed" true (Pld_noc.Bft.lookup_route net ~leaf:0 ~stream:0 <> None)

let test_deploy_monolithic_evicts_overlay () =
  let card = Pld_platform.Card.create () in
  ignore (Loader.deploy card (Build.compile fp (pipeline 2) ~level:Build.O1));
  ignore (Loader.deploy card (Build.compile fp (pipeline 2) ~level:Build.O3));
  check_bool "kernel active" true
    (match Pld_platform.Card.l1 card with Pld_platform.Card.Kernel_loaded _ -> true | _ -> false);
  check_int "pages cleared" 0 (List.length (Pld_platform.Card.loaded_pages card))

let test_card_protocol_violation () =
  let card = Pld_platform.Card.create () in
  let app = Build.compile fp (pipeline 1) ~level:Build.O1 in
  match
    List.iter
      (fun (_, c) ->
        match c with
        | Build.Hw_page h -> ignore (Pld_platform.Card.load card h.Flow.xclbin)
        | Build.Soft_page _ -> ())
      app.Build.operators
  with
  | _ -> Alcotest.fail "expected Protocol_error (page before overlay)"
  | exception Pld_platform.Card.Protocol_error _ -> ()

let test_assign_hint_collision () =
  let demand = { N.luts = 100; ffs = 100; brams = 0; dsps = 0 } in
  match
    Assign.assign fp
      [
        ("a", Graph.Hw { page_hint = Some 5 }, demand);
        ("b", Graph.Hw { page_hint = Some 5 }, demand);
      ]
  with
  | _ -> Alcotest.fail "expected No_fit on colliding p_num pragmas"
  | exception Assign.No_fit _ -> ()

let test_multi_frame_throughput () =
  (* Several frames through the same pipeline: outputs concatenate and
     stay in order (steady-state streaming). *)
  let g = pipeline ~n:8 2 in
  let frames = 3 in
  let words = List.concat (List.init frames (fun _ -> List.init 8 (fun i -> Value.of_int u32 (i + 1)))) in
  let r = Pld_kpn.Run_graph.run g ~rounds:frames ~inputs:[ ("cin", words) ] in
  let out = List.map Value.to_int (List.assoc "cout" r.Pld_kpn.Run_graph.outputs) in
  Alcotest.(check (list int)) "three frames"
    (List.concat (List.init frames (fun _ -> List.init 8 (fun i -> 4 * (i + 1)))))
    out

let test_dma_model () =
  let d = Pld_platform.Dma.default in
  let small = Pld_platform.Dma.transfer_seconds d ~bytes:64 in
  let big = Pld_platform.Dma.transfer_seconds d ~bytes:(1 lsl 20) in
  check_bool "setup latency floors small transfers" true (small >= d.Pld_platform.Dma.setup_us *. 1e-6);
  check_bool "bandwidth dominates big transfers" true (big > 10.0 *. small);
  let f = Pld_platform.Dma.frame_seconds d ~words_in:256 ~words_out:256 in
  check_bool "frame = two transfers" true (f > small *. 1.5)

(* ---------- reporting ---------- *)

let test_reports () =
  let app = Build.compile fp (pipeline 2) ~level:Build.O1 in
  let row = Report.compile_row app in
  check_int "six columns" 6 (List.length row);
  let area = Report.area_row app in
  check_int "five columns" 5 (List.length area);
  check_bool "summary non-empty" true (String.length (Report.compile_summary app) > 20)

(* ---------- fabric profiles ---------- *)

module Pmu = Pld_telemetry.Pmu
module Json = Pld_telemetry.Json
module Bottleneck = Pld_insight.Bottleneck

let profiled_run ?(n = 64) ?(stages = 3) level =
  let g = pipeline ~n stages in
  let app = Build.compile fp g ~level in
  let pmu = Pmu.create () in
  let r = Runner.run ~pmu app ~inputs:(inputs n) in
  (app, pmu, r)

let test_fabric_profile_of_run () =
  let app, pmu, r = profiled_run Build.O1 in
  let p = Fabric_profile.of_run ~trace:"tr-42" ~tenant:"acme" ~pmu app r in
  Alcotest.(check string) "graph name" "pipe" p.Fabric_profile.pf_graph;
  Alcotest.(check string) "level" "-O1" p.Fabric_profile.pf_level;
  Alcotest.(check (option string)) "trace carried" (Some "tr-42") p.Fabric_profile.pf_trace;
  Alcotest.(check (option string)) "tenant carried" (Some "acme") p.Fabric_profile.pf_tenant;
  check_bool "frame cycles modeled" true (p.Fabric_profile.pf_frame_cycles > 0);
  check_int "one op_stat per instance" 3 (List.length p.Fabric_profile.pf_ops);
  List.iter
    (fun (o : Fabric_profile.op_stat) ->
      check_bool (o.Fabric_profile.op_name ^ " fired") true (o.Fabric_profile.op_firings > 0);
      Alcotest.(check string) "hw kind" "hw" o.Fabric_profile.op_kind;
      check_bool "placed on a page" true (o.Fabric_profile.op_page <> None))
    p.Fabric_profile.pf_ops;
  (* Channel topology: the graph boundary channels face the host. *)
  let chan name =
    List.find (fun (c : Fabric_profile.chan_stat) -> c.Fabric_profile.ch_name = name)
      p.Fabric_profile.pf_chans
  in
  Alcotest.(check (option string)) "cin fed by host" None (chan "cin").Fabric_profile.ch_src;
  Alcotest.(check (option string)) "cout drained by host" None (chan "cout").Fabric_profile.ch_dst;
  check_int "every input token crossed cin" 64 (chan "cin").Fabric_profile.ch_tokens;
  (* The PMU saw the run: per-process firing series exist. *)
  check_bool "firing series recorded" true
    (List.exists (fun n -> n = "kpn.proc.stage0.firings") (Pmu.series_names pmu));
  (* Profiled streaming must not perturb the computed outputs. *)
  Alcotest.(check (list int)) "outputs intact"
    (List.init 64 (fun i -> 8 * (i + 1)))
    (List.map Value.to_int (List.assoc "cout" r.Runner.outputs))

let test_fabric_profile_json_roundtrip () =
  let app, pmu, r = profiled_run ~n:32 ~stages:2 Build.O1 in
  let p = Fabric_profile.of_run ~tenant:"acme" ~pmu app r in
  let doc = Json.of_string (Json.to_string (Fabric_profile.to_json p)) in
  match Fabric_profile.of_json doc with
  | Error m -> Alcotest.failf "of_json failed: %s" m
  | Ok q ->
      Alcotest.(check string) "byte-identical re-export"
        (Json.to_string (Fabric_profile.to_json p))
        (Json.to_string (Fabric_profile.to_json q))

let test_fabric_profile_heatmap_smoke () =
  let app, pmu, r = profiled_run Build.O1 in
  let p = Fabric_profile.of_run ~pmu app r in
  let s = Fabric_profile.render_heatmap p fp in
  check_bool "non-trivial rendering" true (String.length s > 100);
  let contains re =
    let n = String.length re and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = re || go (i + 1)) in
    go 0
  in
  check_bool "names the ops" true (contains "stage0");
  check_bool "shows stall split" true (contains "rd" && contains "wr")

let test_attribution_agrees_with_perf_model () =
  (* The ISSUE's acceptance check: on the Rosetta rendering benchmark
     at -O1 the back-pressure walk must name a rate limiter consistent
     with the perf model's critical-path verdict. *)
  let b = Pld_rosetta.Suite.find "rendering" in
  let g = b.Pld_rosetta.Suite.graph (Graph.Hw { page_hint = None }) in
  let app = Build.compile fp g ~level:Build.O1 in
  let pmu = Pmu.create () in
  let r = Runner.run ~pmu app ~inputs:(b.Pld_rosetta.Suite.workload ()) in
  let p = Fabric_profile.of_run ~pmu app r in
  let bk = Bottleneck.attribute p in
  check_bool "profiled run observes stalls" true (bk.Bottleneck.bk_total_stalls > 0);
  check_bool "attribution agrees with perf model" true bk.Bottleneck.bk_agrees;
  (match Bottleneck.rate_limiter bk with
  | None -> Alcotest.fail "no rate limiter named"
  | Some (op, frac) ->
      check_bool ("dominant culprit " ^ op) true (frac > 0.5));
  check_bool "report renders" true (Bottleneck.render bk <> [])

let test_compile_time_shape () =
  (* -O1 wall time must beat monolithic on a multi-operator app —
     the paper's headline (Tab. 2). *)
  let g = pipeline 6 in
  let o1 = Build.compile fp g ~level:Build.O3 in
  let o1w = o1.Build.report.Build.serial_seconds in
  let sep = Build.compile fp g ~level:Build.O1 in
  let sepw = sep.Build.report.Build.parallel_seconds in
  check_bool "separate compile faster" true (sepw < o1w)


(* ---------- the telemetry record of a build ---------- *)

(* Everything a build says about itself is in its telemetry sink, so
   that record is pinned: a digest over every span and instant
   (category, name, clock, track, attributes) and every counter value
   of four -j1 optical builds — cold and warm through a disk store, one
   flaky page compile that is retried, one page compile that always
   fails and is quarantined. Timestamps and durations vary run to run
   and are left out, as is the process-unique "run" attribute. The
   expected digest was recorded on an older commit; a change that
   moves it changes what builds report. *)
let build_trace_fingerprint tele =
  let clock = function Telemetry.Wall -> "wall" | Telemetry.Modeled -> "modeled" in
  let span_line (s : Telemetry.span) =
    String.concat "|"
      (s.Telemetry.cat :: s.Telemetry.name :: clock s.Telemetry.clock
      :: string_of_int s.Telemetry.track
      :: List.filter_map
           (fun (k, v) -> if k = "run" then None else Some (k ^ "=" ^ v))
           s.Telemetry.attrs)
  in
  let counters =
    match Json.member "counters" (Telemetry.to_metrics_json tele) with
    | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) ->
            match v with
            | Json.Int n -> Printf.sprintf "counter %s=%d" k n
            | _ -> Alcotest.fail ("non-integer counter " ^ k))
          kvs
    | _ -> Alcotest.fail "metrics document has no counters"
  in
  List.sort compare (List.map span_line (Telemetry.spans tele)) @ List.sort compare counters

let test_build_trace_pinned () =
  let dir = ".test-store-trace-pin" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let tele = Telemetry.create () in
  let g = (Pld_rosetta.Suite.find "optical").Pld_rosetta.Suite.graph (Graph.Hw { page_hint = None }) in
  let build ?faults ~cache () =
    Build.compile ~cache ~jobs:1 ?faults ~max_retries:1 ~telemetry:tele fp g ~level:Build.O1
  in
  let fault spec = Pld_faults.Fault.create ~seed:1 spec in
  let cold = build ~cache:(Build.create_cache ~dir ~telemetry:tele ()) () in
  let warm = build ~cache:(Build.create_cache ~dir ~telemetry:tele ()) () in
  check_int "warm build is all hits" 0 warm.Build.report.Build.recompiled;
  check_bool "cold build compiled" true (cold.Build.report.Build.recompiled > 0);
  let flaky =
    build
      ~faults:(fault { Pld_faults.Fault.empty with Pld_faults.Fault.flaky_jobs = [ ("op:grad_z", 1) ] })
      ~cache:(Build.create_cache ()) ()
  in
  check_bool "flaky build recovered" true (flaky.Build.report.Build.quarantined = []);
  let broken =
    build
      ~faults:
        (fault { Pld_faults.Fault.empty with Pld_faults.Fault.flaky_jobs = [ ("op:tensor_y", 1000) ] })
      ~cache:(Build.create_cache ()) ()
  in
  Alcotest.(check (list string)) "broken page fell back" [ "tensor_y" ] broken.Build.report.Build.fallbacks;
  let lines = build_trace_fingerprint tele in
  Alcotest.(check string) "build telemetry digest" "2640b2b01cf2cca40d53f5d4a7b75018"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))


let suite =
  [
    ("assign: basic", `Quick, test_assign_basic);
    ("assign: pragma hint", `Quick, test_assign_honors_hint);
    ("assign: no fit", `Quick, test_assign_no_fit);
    ("assign: bram-heavy placement", `Quick, test_assign_bram_heavy_gets_bram_page);
    ("compile -O1", `Quick, test_compile_o1);
    ("compile -O0 forces softcores", `Quick, test_compile_o0_forces_softcores);
    ("compile mixed pragmas", `Quick, test_compile_mixed_targets);
    ("incremental cache", `Slow, test_incremental_cache);
    ("persistent store: 1-op edit recompiles 1 page", `Slow, test_persistent_incremental);
    ("cache stats per kind", `Quick, test_cache_stats_per_kind);
    ("cache kinds cannot collide", `Quick, test_kind_partition_no_collision);
    ("executor: -j1 = -j4 artifacts", `Slow, test_executor_determinism);
    ("executor: -j4 beats -j1 (paced)", `Slow, test_parallel_jobs_faster);
    ("parallel <= serial", `Quick, test_o1_parallel_faster_than_serial);
    ("all levels agree functionally", `Slow, test_all_levels_agree);
    ("-O0 orders slower", `Slow, test_o0_orders_slower);
    ("-O1 between -O3 and -O0", `Slow, test_o1_between);
    ("mixed softcore/fabric run", `Slow, test_mixed_execution_matches);
    ("runner: an underfed run stalls at every level", `Slow, test_underfed_stalls_at_every_level);
    ("runner: profiling changes no result", `Slow, test_profiling_changes_no_result);
    ("assign: colliding p_num pragmas", `Quick, test_assign_hint_collision);
    ("multi-frame streaming", `Quick, test_multi_frame_throughput);
    ("dma engine model", `Quick, test_dma_model);
    ("deploy -O1 to card", `Quick, test_deploy_o1);
    ("monolithic load evicts overlay", `Quick, test_deploy_monolithic_evicts_overlay);
    ("card protocol enforcement", `Quick, test_card_protocol_violation);
    ("reports render", `Quick, test_reports);
    ("fabric profile: of_run snapshot", `Quick, test_fabric_profile_of_run);
    ("fabric profile: JSON round-trip", `Quick, test_fabric_profile_json_roundtrip);
    ("fabric profile: heatmap smoke", `Quick, test_fabric_profile_heatmap_smoke);
    ("attribution agrees with perf model (rendering -O1)", `Slow, test_attribution_agrees_with_perf_model);
    ("compile-time shape (Tab. 2)", `Slow, test_compile_time_shape);
    ("telemetry record of a build pinned", `Slow, test_build_trace_pinned);
  ]
