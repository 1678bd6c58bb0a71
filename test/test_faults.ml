(* Fault injection and fault-tolerant relinking: the robustness layer.

   The suite is seed-parametric: PLD_FAULT_SEED (default 11) seeds
   every rate-based injector, and CI sweeps several seeds — the
   recovery machinery must work under any fault trace, and the same
   seed must reproduce the same trace. *)

open Pld_ir
open Pld_core
module Fault = Pld_faults.Fault
module Bft = Pld_noc.Bft
module Traffic = Pld_noc.Traffic
module Card = Pld_platform.Card
module Fp = Pld_fabric.Floorplan
module Telemetry = Pld_telemetry.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0
let u32 = Dtype.word
let fp = Fp.u50 ()
let hw = Graph.Hw { page_hint = None }

let seed =
  match Sys.getenv_opt "PLD_FAULT_SEED" with
  | Some s -> int_of_string s
  | None -> 11

(* Every injector draws from a sub-seed derived from the root seed and
   a per-site tag (lib/proptest's seeded-case discipline), so the fault
   streams of different tests are independent of each other yet all
   reproduce from PLD_FAULT_SEED alone. *)
module Seeded = Pld_proptest.Seeded

let injector ~tag spec = Fault.create ~seed:(Seeded.derive ~seed tag) spec

(* Same pipeline builder as test_pld. *)
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

let pipeline ?(target = hw) ?(n = 8) stages =
  let ops = List.init stages (fun i -> doubler ~name:(Printf.sprintf "stage%d" i) n) in
  let chan i = if i = 0 then "cin" else if i = stages then "cout" else Printf.sprintf "c%d" i in
  Graph.make ~name:"pipe"
    ~channels:(List.init (stages + 1) (fun i -> Graph.channel (chan i)))
    ~instances:
      (List.mapi
         (fun i op -> Graph.instance ~target ~name:op.Op.name op [ ("in", chan i); ("out", chan (i + 1)) ])
         ops)
    ~inputs:[ "cin" ] ~outputs:[ "cout" ]

let inputs n = [ ("cin", List.init n (fun i -> Value.of_int u32 (i + 1))) ]
let out_ints r = List.map Value.to_int (List.assoc "cout" r.Runner.outputs)

(* ---------- spec parsing ---------- *)

let test_spec_parse_roundtrip () =
  let s = "page=3,drop=0.01,corrupt=0.005,load=5@2,hang=fft0@100,trap=acc@200,job=op:fft0@1" in
  match Fault.parse s with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok spec ->
      Alcotest.(check (list int)) "pages" [ 3 ] spec.Fault.defective_pages;
      Alcotest.(check (float 1e-9)) "drop" 0.01 spec.Fault.drop_rate;
      Alcotest.(check (list (pair int int))) "loads" [ (5, 2) ] spec.Fault.flaky_loads;
      Alcotest.(check (list (pair string int))) "hangs" [ ("fft0", 100) ] spec.Fault.hangs;
      Alcotest.(check (list (pair string int))) "traps" [ ("acc", 200) ] spec.Fault.traps;
      Alcotest.(check (list (pair string int))) "jobs" [ ("op:fft0", 1) ] spec.Fault.flaky_jobs;
      (* to_string renders back to an equivalent spec *)
      check_bool "roundtrip" true (Fault.parse (Fault.to_string spec) = Ok spec)

let test_spec_parse_errors () =
  let bad s = match Fault.parse s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> () in
  bad "nonsense";
  bad "drop=1.5";
  bad "drop=-0.1";
  bad "page=abc";
  bad "hang=fft0";
  bad "hang=@5";
  bad "frobnicate=1"

(* ---------- NoC under link faults ---------- *)

let lossy_links = [ { Traffic.src_leaf = 1; src_stream = 0; dst_leaf = 9; dst_stream = 0; tokens = 400 };
                    { Traffic.src_leaf = 5; src_stream = 0; dst_leaf = 2; dst_stream = 0; tokens = 400 } ]

let total_tokens = List.fold_left (fun acc (l : Traffic.link) -> acc + l.Traffic.tokens) 0 lossy_links

let test_replay_lossy_links () =
  let faults = injector ~tag:"replay-lossy" { Fault.empty with Fault.drop_rate = 0.05 } in
  let net = Bft.create ~faults () in
  let r = Traffic.replay net lossy_links in
  check_int "every token delivered" total_tokens r.Traffic.delivered;
  check_bool "some flits dropped" true (r.Traffic.dropped > 0);
  check_bool "dropped flits retransmitted" true (r.Traffic.retransmitted >= r.Traffic.dropped);
  check_bool "per-link counters populated" true (Bft.link_faults net <> [])

let test_replay_corrupt_links () =
  let faults = injector ~tag:"replay-corrupt" { Fault.empty with Fault.corrupt_rate = 0.05 } in
  let net = Bft.create ~faults () in
  let r = Traffic.replay net lossy_links in
  check_int "every token delivered" total_tokens r.Traffic.delivered;
  check_bool "some flits corrupted" true (r.Traffic.corrupted > 0);
  check_bool "corrupted flits retransmitted" true (r.Traffic.retransmitted > 0)

let test_replay_deterministic () =
  let run () =
    let faults = injector ~tag:"replay-det" { Fault.empty with Fault.drop_rate = 0.05; Fault.corrupt_rate = 0.02 } in
    Traffic.replay (Bft.create ~faults ()) lossy_links
  in
  let r1 = run () and r2 = run () in
  check_bool "same seed, same replay (cycles + all counters)" true (r1 = r2)

(* [lossy_links] under drop 0.05 and corrupt 0.05 at fixed seeds
   (not PLD_FAULT_SEED): the configuration packets, then the replay, on
   one network. The digest covers every result field, [Bft.stats],
   per-link traffic and per-link fault counters, so the order of the
   fault draws along the network's step is pinned with them. *)
let lossy_pins =
  [
    (7, "ac103090a16bd2a0fa1c04f1cb80fc77");
    (11, "87a7c5e6daa610a92e84991bba49f750");
    (23, "60da5bde6433f06da7bbc4bf9ff0055b");
  ]

let lossy_digest seed =
  let faults =
    Fault.create ~seed:(Seeded.derive ~seed "replay-pin")
      { Fault.empty with Fault.drop_rate = 0.05; Fault.corrupt_rate = 0.05 }
  in
  let net = Bft.create ~faults ~telemetry:(Telemetry.create ()) () in
  let cfg = Traffic.config_cycles net lossy_links in
  let r = Traffic.replay net lossy_links in
  let s = Bft.stats net in
  let text =
    String.concat "\n"
      ([
         Printf.sprintf "cfg %d" cfg;
         Printf.sprintf "result %d %d %d %d %d %d %h" r.Traffic.cycles r.Traffic.delivered r.Traffic.deflections
           r.Traffic.dropped r.Traffic.corrupted r.Traffic.retransmitted r.Traffic.avg_latency;
         Printf.sprintf "stats %d %d %d %d %d %d %d" s.Bft.cycles s.Bft.delivered s.Bft.deflections s.Bft.dropped
           s.Bft.corrupted s.Bft.max_latency s.Bft.total_latency;
       ]
      @ List.map (fun (l, n) -> Printf.sprintf "link %d %d" l n) (Bft.link_traffic net)
      @ List.map (fun (l, d, c) -> Printf.sprintf "fault %d %d %d" l d c) (Bft.link_faults net))
  in
  Digest.to_hex (Digest.string text)

let test_lossy_replay_pinned () =
  Alcotest.(check (list (pair int string)))
    "digest per seed" lossy_pins
    (List.map (fun (seed, _) -> (seed, lossy_digest seed)) lossy_pins)

let test_crc_catches_corruption () =
  (* A flit whose payload is flipped in flight must fail the CRC check:
     deliver a corrupted flit by hand and watch it land in the lost
     queue instead of the eject buffer. *)
  let f = Bft.data_flit ~src_leaf:1 ~dst_leaf:5 ~dst_stream:0 42l in
  check_int "crc matches as framed" (Bft.flit_crc 42l) f.Bft.crc;
  f.Bft.payload <- 43l;
  check_bool "corrupted payload no longer matches" true (Bft.flit_crc f.Bft.payload <> f.Bft.crc)

let test_config_survives_loss () =
  let faults = injector ~tag:"config-loss" { Fault.empty with Fault.drop_rate = 0.1 } in
  let net = Bft.create ~faults () in
  let links =
    [ { Traffic.src_leaf = 3; src_stream = 0; dst_leaf = 7; dst_stream = 1; tokens = 0 };
      { Traffic.src_leaf = 8; src_stream = 1; dst_leaf = 4; dst_stream = 0; tokens = 0 } ]
  in
  let cycles = Traffic.config_cycles net links in
  check_bool "config converged" true (cycles > 0);
  List.iter
    (fun (l : Traffic.link) ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "route leaf %d stream %d" l.Traffic.src_leaf l.Traffic.src_stream)
        (Some (l.Traffic.dst_leaf, l.Traffic.dst_stream))
        (Bft.lookup_route net ~leaf:l.Traffic.src_leaf ~stream:l.Traffic.src_stream))
    links

(* ---------- card: page-load faults + CRC readback ---------- *)

let first_hw_xclbin (app : Build.app) =
  List.filter_map
    (fun (_, c) -> match c with Build.Hw_page h -> Some h.Flow.xclbin | Build.Soft_page _ -> None)
    app.Build.operators
  |> List.hd

let test_card_defective_page_fails_readback () =
  let app = Build.compile fp (pipeline 1) ~level:Build.O1 in
  let page = List.assoc "stage0" app.Build.assignment in
  let faults = injector ~tag:"card-defective" { Fault.empty with Fault.defective_pages = [ page ] } in
  let card = Card.create ~faults () in
  ignore (Card.load card (Flow.overlay_xclbin fp));
  let xb = first_hw_xclbin app in
  ignore (Card.load card xb);
  check_bool "defective page never verifies" false (Card.readback_ok card xb);
  ignore (Card.load card xb);
  check_bool "still garbled on retry" false (Card.readback_ok card xb)

let test_card_flaky_page_recovers () =
  let app = Build.compile fp (pipeline 1) ~level:Build.O1 in
  let page = List.assoc "stage0" app.Build.assignment in
  let faults = injector ~tag:"card-flaky" { Fault.empty with Fault.flaky_loads = [ (page, 2) ] } in
  let card = Card.create ~faults () in
  ignore (Card.load card (Flow.overlay_xclbin fp));
  let xb = first_hw_xclbin app in
  ignore (Card.load card xb);
  check_bool "first load garbled" false (Card.readback_ok card xb);
  ignore (Card.load card xb);
  check_bool "second load garbled" false (Card.readback_ok card xb);
  ignore (Card.load card xb);
  check_bool "third load verifies" true (Card.readback_ok card xb)

let test_card_clean_page_verifies () =
  let app = Build.compile fp (pipeline 1) ~level:Build.O1 in
  let card = Card.create () in
  ignore (Card.load card (Flow.overlay_xclbin fp));
  let xb = first_hw_xclbin app in
  ignore (Card.load card xb);
  check_bool "clean load verifies" true (Card.readback_ok card xb)

(* ---------- card: every Protocol_error path ---------- *)

let expect_protocol_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Protocol_error" name
  | exception Card.Protocol_error _ -> ()

let test_protocol_page_before_overlay () =
  let app = Build.compile fp (pipeline 1) ~level:Build.O1 in
  let card = Card.create () in
  expect_protocol_error "page before overlay" (fun () -> Card.load card (first_hw_xclbin app))

let test_protocol_softcore_before_overlay () =
  let app = Build.compile fp (pipeline 1) ~level:Build.O0 in
  let card = Card.create () in
  let xb =
    match List.assoc "stage0" app.Build.operators with
    | Build.Soft_page s -> s.Flow.xclbin0
    | Build.Hw_page _ -> Alcotest.fail "expected softcore"
  in
  expect_protocol_error "softcore before overlay" (fun () -> Card.load card xb)

let test_protocol_page_during_kernel () =
  let paged = Build.compile fp (pipeline 1) ~level:Build.O1 in
  let mono = Build.compile fp (pipeline 1) ~level:Build.O3 in
  let card = Card.create () in
  ignore (Card.load card (Build.monolithic_exn mono).Flow.xclbin3);
  expect_protocol_error "page during monolithic kernel" (fun () ->
      Card.load card (first_hw_xclbin paged))

let test_protocol_nonexistent_page () =
  let app = Build.compile fp (pipeline 1) ~level:Build.O1 in
  let h =
    match List.assoc "stage0" app.Build.operators with
    | Build.Hw_page h -> h
    | Build.Soft_page _ -> Alcotest.fail "expected hw page"
  in
  let bogus =
    Pld_platform.Xclbin.page_bits ~page:99 ~operator:"ghost" ~fmax_mhz:200.0
      h.Flow.pnr.Pld_pnr.Pnr.bitstream
  in
  let card = Card.create () in
  ignore (Card.load card (Flow.overlay_xclbin fp));
  expect_protocol_error "nonexistent page" (fun () -> Card.load card bogus)

(* ---------- loader: the recovery ladder ---------- *)

(* Strip the measured-float fields so traces can be compared across runs. *)
let recovery_shape =
  List.map (function
    | Loader.Load_retry { inst; page; attempt; _ } ->
        Printf.sprintf "retry %s page%d attempt%d" inst page attempt
    | Loader.Spare_relink { inst; from_page; to_page; _ } ->
        Printf.sprintf "relink %s %d->%d" inst from_page to_page
    | Loader.Softcore_fallback { inst; from_page; to_page; _ } ->
        Printf.sprintf "soften %s %d->%d" inst from_page to_page)

let test_deploy_spare_relink () =
  let g = pipeline 3 in
  let app = Build.compile fp g ~level:Build.O1 in
  let victim_inst, victim_page = List.hd app.Build.assignment in
  (* Fault-free reference first. *)
  let clean = Loader.deploy (Card.create ()) app in
  let reference = Runner.run clean.Loader.app ~inputs:(inputs 8) in
  (* Now the same deploy against a card whose page is defective. *)
  let faults = injector ~tag:"deploy-relink" { Fault.empty with Fault.defective_pages = [ victim_page ] } in
  let card = Card.create ~faults () in
  let dr = Loader.deploy ~faults card app in
  check_bool "recovered without degradation" false dr.Loader.degraded;
  let relinks =
    List.filter_map
      (function Loader.Spare_relink { inst; from_page; to_page; _ } -> Some (inst, from_page, to_page) | _ -> None)
      dr.Loader.recovery
  in
  (match relinks with
  | [ (inst, from_page, to_page) ] ->
      check_string "victim relinked" victim_inst inst;
      check_int "away from the defective page" victim_page from_page;
      check_bool "onto a different page" true (to_page <> victim_page);
      check_int "assignment updated" to_page
        (List.assoc victim_inst dr.Loader.app.Build.assignment)
  | l -> Alcotest.failf "expected exactly one spare relink, got %d" (List.length l));
  check_bool "retries preceded the relink" true
    (List.exists (function Loader.Load_retry _ -> true | _ -> false) dr.Loader.recovery);
  check_bool "relink cost on the deploy clock" true (dr.Loader.seconds > clean.Loader.seconds);
  (* The recovered deployment computes bit-identical outputs. *)
  let r = Runner.run dr.Loader.app ~inputs:(inputs 8) in
  Alcotest.(check (list int)) "bit-identical outputs" (out_ints reference) (out_ints r)

let test_deploy_recovery_deterministic () =
  let app = Build.compile fp (pipeline 3) ~level:Build.O1 in
  let _, victim_page = List.hd app.Build.assignment in
  let deploy_once () =
    let faults = injector ~tag:"deploy-det" { Fault.empty with Fault.defective_pages = [ victim_page ] } in
    let dr = Loader.deploy ~faults (Card.create ~faults ()) app in
    recovery_shape dr.Loader.recovery
  in
  Alcotest.(check (list string))
    "same seed, same recovery trace" (deploy_once ()) (deploy_once ())

let test_deploy_flaky_load_retries_only () =
  let app = Build.compile fp (pipeline 2) ~level:Build.O1 in
  let victim_inst, victim_page = List.hd app.Build.assignment in
  let faults = injector ~tag:"deploy-flaky" { Fault.empty with Fault.flaky_loads = [ (victim_page, 2) ] } in
  let dr = Loader.deploy ~faults (Card.create ~faults ()) app in
  Alcotest.(check (list string))
    "two retries, no relink"
    [ Printf.sprintf "retry %s page%d attempt1" victim_inst victim_page;
      Printf.sprintf "retry %s page%d attempt2" victim_inst victim_page ]
    (recovery_shape dr.Loader.recovery);
  check_int "assignment unchanged" victim_page (List.assoc victim_inst dr.Loader.app.Build.assignment)

let test_deploy_exhausted_raises () =
  (* Every page defective: the ladder must run out and say so. *)
  let app = Build.compile fp (pipeline 1) ~level:Build.O1 in
  let all_pages = List.map (fun (p : Fp.page) -> p.Fp.page_id) fp.Fp.pages in
  let faults = injector ~tag:"deploy-exhausted" { Fault.empty with Fault.defective_pages = all_pages } in
  match Loader.deploy ~faults ~max_retries:0 (Card.create ~faults ()) app with
  | _ -> Alcotest.fail "expected Deploy_failed"
  | exception Loader.Deploy_failed msg ->
      check_bool "message names the defect map" true
        (contains ~sub:"defect map" msg)

(* Links that drop every flit: the configuration packets never get
   through, the link step gives up with the network's named failure,
   and deploy reports it as a failed deploy rather than a crash. *)
let test_deploy_undeliverable_links () =
  let app = Build.compile fp (pipeline 2) ~level:Build.O1 in
  let faults = injector ~tag:"deploy-noc" { Fault.empty with Fault.drop_rate = 1.0 } in
  match Loader.deploy ~faults (Card.create ~faults ()) app with
  | _ -> Alcotest.fail "expected Deploy_failed"
  | exception Loader.Deploy_failed msg ->
      check_bool "names the link step" true (contains ~sub:"linking failed" msg);
      check_bool "names the bound" true (contains ~sub:"retransmission rounds" msg)

(* ---------- build engine: retry and quarantine ---------- *)

let instants telemetry name =
  List.filter
    (fun (s : Telemetry.span) -> s.Telemetry.dur_us = None && s.Telemetry.name = name)
    (Telemetry.spans telemetry)

let test_build_job_retry () =
  let faults = injector ~tag:"build-retry" { Fault.empty with Fault.flaky_jobs = [ ("op:stage0", 1) ] } in
  let telemetry = Telemetry.create () in
  let app = Build.compile ~faults ~max_retries:2 ~telemetry fp (pipeline 2) ~level:Build.O1 in
  check_bool "nothing quarantined" true (app.Build.report.Build.quarantined = []);
  check_bool "no fallbacks" true (app.Build.report.Build.fallbacks = []);
  check_int "one retry in the trace" 1 (List.length (instants telemetry "retry"));
  (* The retried build is a normal build: all pages hardware. *)
  List.iter
    (fun (_, c) ->
      match c with Build.Hw_page _ -> () | Build.Soft_page _ -> Alcotest.fail "unexpected softcore")
    app.Build.operators

let test_build_quarantine_softcore_fallback () =
  (* stage1's page compile always fails: the build must quarantine it
     and ship the -O0 softcore build for that one operator instead. *)
  let faults = injector ~tag:"build-quarantine" { Fault.empty with Fault.flaky_jobs = [ ("op:stage1", 1000) ] } in
  let telemetry = Telemetry.create () in
  let app = Build.compile ~faults ~max_retries:1 ~telemetry fp (pipeline 3) ~level:Build.O1 in
  Alcotest.(check (list string)) "fallback recorded" [ "stage1" ] app.Build.report.Build.fallbacks;
  check_bool "quarantine recorded" true
    (List.mem_assoc "op:stage1" app.Build.report.Build.quarantined);
  (match List.assoc "stage1" app.Build.operators with
  | Build.Soft_page _ -> ()
  | Build.Hw_page _ -> Alcotest.fail "stage1 should have fallen back to a softcore");
  check_bool "quarantine in trace" true (instants telemetry "quarantined" <> []);
  (* Degraded but correct: the mixed app still computes the answer. *)
  let r = Runner.run app ~inputs:(inputs 8) in
  Alcotest.(check (list int)) "outputs correct via fallback"
    (List.init 8 (fun i -> 8 * (i + 1)))
    (out_ints r)

let test_build_assign_failure_is_build_error () =
  let faults = injector ~tag:"build-assign" { Fault.empty with Fault.flaky_jobs = [ ("assign", 1000) ] } in
  match Build.compile ~faults ~max_retries:0 fp (pipeline 2) ~level:Build.O1 with
  | _ -> Alcotest.fail "expected Build_error"
  | exception Build.Build_error msg ->
      check_bool "names the assignment" true (contains ~sub:"assignment" msg)

let test_assign_defect_map () =
  let demand = { Pld_netlist.Netlist.luts = 100; ffs = 100; brams = 0; dsps = 0 } in
  let a = Assign.assign fp [ ("op", hw, demand) ] in
  let first_choice = List.assoc "op" a in
  let a' = Assign.assign ~defective:[ first_choice ] fp [ ("op", hw, demand) ] in
  check_bool "defective page avoided" true (List.assoc "op" a' <> first_choice);
  match Assign.assign ~defective:[ 13 ] fp [ ("op", Graph.Hw { page_hint = Some 13 }, demand) ] with
  | _ -> Alcotest.fail "expected No_fit on hint into defect map"
  | exception Assign.No_fit msg ->
      check_bool "says defect map" true (contains ~sub:"defect map" msg)

(* ---------- runner: watchdog and trap diagnosis ---------- *)

(* Control-fault injection is checked on the softcore's cycle clock
   each time its process is scheduled, so the workload must be long
   enough that the victim stalls (and re-enters the scheduler) after
   crossing the threshold — tiny frames finish inside one quantum. *)
let test_watchdog_hang_diagnosed () =
  let g = pipeline ~target:Graph.Riscv ~n:2000 3 in
  let app = Build.compile fp g ~level:Build.O0 in
  let faults = injector ~tag:"watchdog-hang" { Fault.empty with Fault.hangs = [ ("stage1", 1000) ] } in
  match Runner.run ~faults app ~inputs:(inputs 2000) with
  | _ -> Alcotest.fail "expected Stalled"
  | exception Runner.Stalled d ->
      check_bool "hung instance in blocked set" true (List.mem "stage1" d.Runner.blocked);
      check_bool "channels reported" true (d.Runner.channels <> []);
      check_bool "diagnosis renders" true
        (contains ~sub:"stage1" (Runner.describe_stall d))

(* The frame's NoC replay on links that drop every flit: the run
   stalls with a linking-network diagnosis instead of an uncaught
   failure. *)
let test_run_undeliverable_links_stalls () =
  let app = Build.compile fp (pipeline 2) ~level:Build.O1 in
  let faults = injector ~tag:"run-noc" { Fault.empty with Fault.drop_rate = 1.0 } in
  match Runner.run ~faults app ~inputs:(inputs 8) with
  | _ -> Alcotest.fail "expected Stalled"
  | exception Runner.Stalled d ->
      check_bool "reason names the linking network" true (contains ~sub:"linking network" d.Runner.stall_reason);
      check_bool "no instance blocked" true (d.Runner.blocked = []);
      check_bool "diagnosis renders" true (contains ~sub:"stalled: linking network" (Runner.describe_stall d))

(* The 2-stage pipeline's frame replayed on links that drop nine flits
   in ten: retransmission cannot keep up, and the replay names the
   failure once [Traffic.stall_cycles] cycles pass with no delivery
   instead of grinding on. *)
let test_replay_lossy_links_stall () =
  let app = Build.compile fp (pipeline 2) ~level:Build.O1 in
  let links = Runner.noc_links app (Runner.run app ~inputs:(inputs 8)).Runner.channel_stats in
  let faults = injector ~tag:"replay-stall" { Fault.empty with Fault.drop_rate = 0.9 } in
  let net = Bft.create ~leaves:(Flow.noc_leaves app.Build.fp) ~faults () in
  match Traffic.replay net links with
  | _ -> Alcotest.fail "expected Undelivered"
  | exception Bft.Undelivered msg ->
      let bound = Traffic.stall_cycles in
      check_bool ("names the bound: " ^ msg) true
        (contains ~sub:(Printf.sprintf "none delivered in %d cycles" bound) msg);
      (* Each delivered token resets the count at most once, so the
         replay stops within (tokens + 1) bounds of cycles. *)
      let tokens = List.fold_left (fun n (l : Traffic.link) -> n + l.Traffic.tokens) 0 links in
      let cycles = (Bft.stats net).Bft.cycles in
      check_bool (Printf.sprintf "stopped after %d cycles" cycles) true
        (cycles >= bound && cycles <= (tokens + 1) * bound)

let test_trap_carries_machine_state () =
  let g = pipeline ~target:Graph.Riscv ~n:2000 2 in
  let app = Build.compile fp g ~level:Build.O0 in
  let faults = injector ~tag:"trap-state" { Fault.empty with Fault.traps = [ ("stage1", 1000) ] } in
  match Runner.run ~faults app ~inputs:(inputs 2000) with
  | _ -> Alcotest.fail "expected Softcore_trap"
  | exception Runner.Softcore_trap (inst, tr) ->
      check_string "instance named" "stage1" inst;
      check_bool "cycle count captured" true (tr.Pld_riscv.Cpu.trap_cycle >= 1);
      check_bool "message present" true (tr.Pld_riscv.Cpu.trap_msg <> "")

let test_cpu_trap_record_fields () =
  (* An illegal instruction must carry pc, the word, and the cycle. *)
  let cpu = Pld_riscv.Cpu.create () in
  Pld_riscv.Cpu.load_words cpu ~addr:0 [| 0xFFFF_FFFFl |];
  match Pld_riscv.Cpu.run cpu with
  | Pld_riscv.Cpu.Trapped tr ->
      check_int "pc at fault" 0 tr.Pld_riscv.Cpu.trap_pc;
      check_bool "instruction word captured" true (tr.Pld_riscv.Cpu.trap_instr = 0xFFFF_FFFFl);
      check_bool "describe mentions pc" true
        (contains ~sub:"pc=0x" (Pld_riscv.Cpu.describe_trap tr))
  | _ -> Alcotest.fail "expected trap"

(* ---------- seeded sweep: random graphs under injected faults ---------- *)

module P = Pld_proptest

(* The generator's seeded-case combinator drives the recovery machinery
   over arbitrary topologies, not just the hand-written pipeline: each
   case is rebuilt at -O1 under a flaky page-compile job, a defective
   page and lossy NoC links, and the recovered outputs must be
   bit-identical to the fault-free reference. *)
let test_random_graph_fault_sweep () =
  P.Seeded.cases ~seed ~count:4 (fun index rng ->
      let g, inputs = P.Gen.graph rng ~name:(Printf.sprintf "sweep%d" index) in
      let expected = (P.Oracle.reference g ~inputs).Pld_kpn.Run_graph.outputs in
      match
        P.Fuzz.fault_check ~case_seed:(P.Seeded.case_seed ~seed index) g ~inputs expected
      with
      | [] -> ()
      | fs ->
          Alcotest.failf "case %d under faults: %s" index
            (String.concat "; " (List.map P.Oracle.failure_to_string fs)))

let test_sub_seeds_independent () =
  let a = Seeded.sub_seeds ~seed ~count:8 "stream-a" in
  let b = Seeded.sub_seeds ~seed ~count:8 "stream-b" in
  Alcotest.(check (list int)) "same tag reproduces" a (Seeded.sub_seeds ~seed ~count:8 "stream-a");
  check_bool "different tags, different streams" true (a <> b);
  let distinct l = List.sort_uniq compare l in
  check_int "no collisions within a stream" (List.length a) (List.length (distinct a))

(* ---------- structure: leaf derivation + descriptive errors ---------- *)

let test_noc_leaves_derived () =
  check_int "u50: DMA + max page id" 23 (Flow.noc_leaves fp);
  let net = Bft.create ~leaves:(Flow.noc_leaves fp) () in
  (* Same 4-ary rounding as the old hard-coded 32 — no topology change. *)
  check_int "rounds to the same tree" (Bft.leaf_count (Bft.create ~leaves:32 ())) (Bft.leaf_count net)

let test_relay_unknown_leaf () =
  let links = [ { Traffic.src_leaf = 99; src_stream = 0; dst_leaf = 1; dst_stream = 0; tokens = 4 } ] in
  match Pld_noc.Relay.replay fp links with
  | _ -> Alcotest.fail "expected Unknown_leaf"
  | exception Pld_noc.Relay.Unknown_leaf msg ->
      check_bool "names the bad leaf" true (contains ~sub:"99" msg)

let test_monolithic_exn_build_error () =
  let app = Build.compile fp (pipeline 1) ~level:Build.O1 in
  (match Build.monolithic_exn app with
  | _ -> Alcotest.fail "expected Build_error"
  | exception Build.Build_error msg ->
      check_bool "names the level" true (contains ~sub:"-O1" msg));
  match Flow.find_instance_exn ~context:"test" (pipeline 1) "ghost" with
  | _ -> Alcotest.fail "expected Build_error"
  | exception Build.Build_error msg ->
      check_bool "lists known instances" true (contains ~sub:"stage0" msg)

let suite =
  [
    ("fault spec parse roundtrip", `Quick, test_spec_parse_roundtrip);
    ("fault spec parse errors", `Quick, test_spec_parse_errors);
    ("replay survives dropped flits", `Quick, test_replay_lossy_links);
    ("replay survives corrupted flits", `Quick, test_replay_corrupt_links);
    ("replay deterministic per seed", `Quick, test_replay_deterministic);
    ("lossy replay pinned at seeds 7, 11, 23", `Quick, test_lossy_replay_pinned);
    ("crc catches corruption", `Quick, test_crc_catches_corruption);
    ("config packets survive loss", `Quick, test_config_survives_loss);
    ("defective page fails readback", `Quick, test_card_defective_page_fails_readback);
    ("flaky page recovers after retries", `Quick, test_card_flaky_page_recovers);
    ("clean page verifies", `Quick, test_card_clean_page_verifies);
    ("protocol: page before overlay", `Quick, test_protocol_page_before_overlay);
    ("protocol: softcore before overlay", `Quick, test_protocol_softcore_before_overlay);
    ("protocol: page during kernel", `Quick, test_protocol_page_during_kernel);
    ("protocol: nonexistent page", `Quick, test_protocol_nonexistent_page);
    ("deploy relinks onto a spare page", `Quick, test_deploy_spare_relink);
    ("deploy recovery deterministic per seed", `Quick, test_deploy_recovery_deterministic);
    ("deploy flaky load needs only retries", `Quick, test_deploy_flaky_load_retries_only);
    ("deploy raises when ladder exhausted", `Quick, test_deploy_exhausted_raises);
    ("undeliverable link config fails the deploy", `Quick, test_deploy_undeliverable_links);
    ("build retries flaky jobs", `Quick, test_build_job_retry);
    ("build quarantines to softcore fallback", `Quick, test_build_quarantine_softcore_fallback);
    ("build assign failure is Build_error", `Quick, test_build_assign_failure_is_build_error);
    ("assign honors defect map", `Quick, test_assign_defect_map);
    ("watchdog diagnoses hung operator", `Quick, test_watchdog_hang_diagnosed);
    ("undeliverable NoC traffic stalls the run", `Quick, test_run_undeliverable_links_stalls);
    ("lossy replay stops after stall_cycles", `Quick, test_replay_lossy_links_stall);
    ("trap carries machine state", `Quick, test_trap_carries_machine_state);
    ("cpu trap record fields", `Quick, test_cpu_trap_record_fields);
    ("random graphs survive fault sweep", `Quick, test_random_graph_fault_sweep);
    ("derived sub-seeds independent", `Quick, test_sub_seeds_independent);
    ("noc leaves derived from floorplan", `Quick, test_noc_leaves_derived);
    ("relay rejects unknown leaf", `Quick, test_relay_unknown_leaf);
    ("monolithic_exn raises Build_error", `Quick, test_monolithic_exn_build_error);
  ]
