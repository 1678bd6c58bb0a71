open Pld_rosetta
open Pld_ir

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let hw = Graph.Hw { page_hint = None }

let functional_case (b : Suite.bench) () =
  let g = b.Suite.graph hw in
  Alcotest.(check (list string)) "graph validates" []
    (List.map Validate.error_to_string (Validate.check_graph g));
  let inputs = b.Suite.workload () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  check_bool "matches independent reference" true (b.Suite.check ~inputs r.Pld_kpn.Run_graph.outputs)

(* Per-instance softcore cycles and an MD5 of the outputs of each
   bench's -O0 run. A change to how the softcore is simulated must
   keep both: -O0 co-simulation is cycle- and bit-exact. *)
let o0_pins =
  [
    ( "rendering",
      ( [ ("proj", 32905); ("rast_bot", 931777); ("rast_top", 942173); ("zmerge", 36709) ],
        "6faf998494d41a45804067a30dbca2e0" ) );
    ( "digit",
      ( [
          ("knn_inject", 9547); ("knn_stage0", 787908); ("knn_stage1", 787006); ("knn_stage2", 786825);
          ("knn_stage3", 786735); ("knn_stage4", 786827); ("knn_vote", 7258);
        ],
        "9f3c191f8a79af09d3fdd6eb0c46ce1d" ) );
    ( "spam",
      ( [
          ("dot0", 80310); ("dot1", 80310); ("dot2", 80310); ("dot3", 80310); ("reduce_sigmoid", 20233);
          ("scatter", 149478);
        ],
        "d685cb09d9ccb2e4b65d32681571e7f4" ) );
    ( "optical",
      ( [
          ("flow_calc", 1024083); ("grad_xy", 495612); ("grad_z", 127791); ("tensor_x", 1472501);
          ("tensor_y", 1614555); ("unpack", 97583); ("weight_y", 771373);
        ],
        "60a7d721267cc9c1b31f530c0a866245" ) );
    ( "face",
      ( [
          ("collect", 1376); ("integral", 397763); ("strong_a", 38112); ("strong_b", 38467); ("weak_c", 39951);
          ("weak_d", 44280);
        ],
        "efa774098e01fb76f9ad436438d19334" ) );
    ( "bnn",
      ( [
          ("bnn_conv1", 5550999); ("bnn_conv2", 13509281); ("bnn_fc1", 139285); ("bnn_fc2", 196847);
          ("bnn_pool", 176145);
        ],
        "54e751692999529dada1d44d5e9cf092" ) );
  ]

let outputs_digest outputs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, vs) ->
      Buffer.add_string buf name;
      List.iter (fun v -> Buffer.add_string buf (" " ^ Value.to_string v)) vs;
      Buffer.add_char buf '\n')
    outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The full perf record and an MD5 of the channel stats of each
   bench's -O0 and -O1 run. Floats are pinned to 17 significant
   digits, which read back as the same float; the NoC counters are
   (dropped, corrupted, retransmitted).
   Every level runs the same network and one perf model, so a change
   to how a run is assembled must keep all of them. *)
type perf_pin = {
  frame : int;
  bottleneck : string;
  fmax : string;
  ms : string;
  link : string;
  noc : int * int * int;
  stats_md5 : string;
}

let o0_perf_pins =
  [
    ( "rendering",
      {
        frame = 942_173;
        bottleneck = "rast_top (softcore)";
        fmax = "200";
        ms = "4.711974333333333";
        link = "4.5000000000000006e-08";
        noc = (0, 0, 0);
        stats_md5 = "967c73e69c1b03e8b9324a1b944cb768";
      } );
    ( "digit",
      {
        frame = 787_908;
        bottleneck = "knn_stage0 (softcore)";
        fmax = "200";
        ms = "3.9405613333333336";
        link = "5.5000000000000003e-08";
        noc = (0, 0, 0);
        stats_md5 = "e70adef1a799ec3aa2ecaee2160c2744";
      } );
    ( "spam",
      {
        frame = 149_478;
        bottleneck = "scatter (softcore)";
        fmax = "200";
        ms = "0.74873666666666672";
        link = "6.9999999999999992e-08";
        noc = (0, 0, 0);
        stats_md5 = "f9e83bc4ef237094dad10744383caf0e";
      } );
    ( "optical",
      {
        frame = 1_614_555;
        bottleneck = "tensor_y (softcore)";
        fmax = "200";
        ms = "8.0741163333333326";
        link = "6.0000000000000008e-08";
        noc = (0, 0, 0);
        stats_md5 = "b689a4d935647aff74dc11a2488c644b";
      } );
    ( "face",
      {
        frame = 397_763;
        bottleneck = "integral (softcore)";
        fmax = "200";
        ms = "1.9899033333333334";
        link = "6.9999999999999992e-08";
        noc = (0, 0, 0);
        stats_md5 = "908bef48a643dddac0307798459d0312";
      } );
    ( "bnn",
      {
        frame = 13_509_281;
        bottleneck = "bnn_conv2 (softcore)";
        fmax = "200";
        ms = "67.547491666666659";
        link = "5.0000000000000004e-08";
        noc = (0, 0, 0);
        stats_md5 = "8960efdd4f250b202714d4306f5eb5be";
      } );
  ]

let o1_perf_pins =
  [
    ( "rendering",
      {
        frame = 1_724;
        bottleneck = "rast_top";
        fmax = "200";
        ms = "0.0097293333333333329";
        link = "5.0000000000000004e-08";
        noc = (0, 0, 0);
        stats_md5 = "967c73e69c1b03e8b9324a1b944cb768";
      } );
    ( "digit",
      {
        frame = 3_074;
        bottleneck = "knn_stage0";
        fmax = "200";
        ms = "0.016391333333333334";
        link = "6.0000000000000008e-08";
        noc = (0, 0, 0);
        stats_md5 = "e84725f3f7a3483f7f01d096c72f6e4d";
      } );
    ( "spam",
      {
        frame = 1_154;
        bottleneck = "scatter";
        fmax = "200";
        ms = "0.007116666666666667";
        link = "6.9999999999999992e-08";
        noc = (0, 0, 0);
        stats_md5 = "2589dfb53bfb3865008d03d1b2fa9af9";
      } );
    ( "optical",
      {
        frame = 3_507;
        bottleneck = "tensor_x";
        fmax = "200";
        ms = "0.018876333333333332";
        link = "6.5e-08";
        noc = (0, 0, 0);
        stats_md5 = "b26b5a5c6eb4db375de8067228678ba5";
      } );
    ( "face",
      {
        frame = 1_655;
        bottleneck = "integral";
        fmax = "200";
        ms = "0.0093633333333333329";
        link = "6.9999999999999992e-08";
        noc = (0, 0, 0);
        stats_md5 = "042362c9616f79e2b1a22dc6e748e7f3";
      } );
    ( "bnn",
      {
        frame = 1_546;
        bottleneck = "bnn_fc2";
        fmax = "200";
        ms = "0.0088166666666666671";
        link = "5.0000000000000004e-08";
        noc = (0, 0, 0);
        stats_md5 = "d9e172dc1a143cbc3bc34562d2acfd3c";
      } );
  ]

let stats_digest stats =
  let module N = Pld_kpn.Network in
  let line (s : N.channel_stats) =
    Printf.sprintf "%s %d %d %d %d %d" s.N.chan s.N.tokens s.N.peak_occupancy s.N.block_events
      s.N.blocked_reads s.N.blocked_writes
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map line stats)))

let check_perf_pin pin (r : Pld_core.Runner.result) =
  let module R = Pld_core.Runner in
  let exact = Printf.sprintf "%.17g" in
  let p = r.R.perf in
  check_int "frame cycles" pin.frame p.R.frame_cycles;
  Alcotest.(check string) "bottleneck" pin.bottleneck p.R.bottleneck;
  Alcotest.(check string) "fmax" pin.fmax (exact p.R.fmax_mhz);
  Alcotest.(check string) "ms per input" pin.ms (exact p.R.ms_per_input);
  Alcotest.(check string) "link seconds" pin.link (exact p.R.link_seconds);
  (match r.R.noc with
  | None -> Alcotest.fail "paged run without a NoC replay"
  | Some n ->
      Alcotest.(check (triple int int int))
        "noc dropped/corrupted/retransmitted" pin.noc
        Pld_noc.Traffic.(n.dropped, n.corrupted, n.retransmitted));
  Alcotest.(check string) "channel stats digest" pin.stats_md5 (stats_digest r.R.channel_stats)

let o0_case (b : Suite.bench) () =
  (* Same source, softcore execution: outputs must still validate, and
     match the pinned cycles and output digest exactly. *)
  let fp = Pld_fabric.Floorplan.u50 () in
  let g = b.Suite.graph hw in
  let inputs = b.Suite.workload () in
  let app = Pld_core.Build.compile fp g ~level:Pld_core.Build.O0 in
  let r = Pld_core.Runner.run app ~inputs in
  check_bool "softcore run validates" true (b.Suite.check ~inputs r.Pld_core.Runner.outputs);
  let cycles, digest = List.assoc b.Suite.name o0_pins in
  Alcotest.(check (list (pair string int)))
    "per-instance softcore cycles" cycles
    (List.sort compare r.Pld_core.Runner.softcore_cycles);
  Alcotest.(check string) "output digest" digest (outputs_digest r.Pld_core.Runner.outputs);
  check_perf_pin (List.assoc b.Suite.name o0_perf_pins) r

let o1_case (b : Suite.bench) () =
  let fp = Pld_fabric.Floorplan.u50 () in
  let g = b.Suite.graph hw in
  let inputs = b.Suite.workload () in
  let app = Pld_core.Build.compile fp g ~level:Pld_core.Build.O1 in
  check_bool "every operator fits a page" true (List.length app.Pld_core.Build.assignment > 0);
  let r = Pld_core.Runner.run app ~inputs in
  check_bool "page run validates" true (b.Suite.check ~inputs r.Pld_core.Runner.outputs);
  check_perf_pin (List.assoc b.Suite.name o1_perf_pins) r

(* The reference interpreter's outputs and summed counters for each
   bench, and the -O3 run's outputs (the same network, built at -O3).
   Recorded before the interpreter was compiled into closures: a
   change to how operators are evaluated must keep every figure. The
   counters are (ops, reads, writes, loop iterations, multiplies,
   divides). *)
let reference_pins =
  [
    ("rendering", ("6faf998494d41a45804067a30dbca2e0", (31208, 408, 592, 3040, 833, 8)));
    ("digit", ("9f3c191f8a79af09d3fdd6eb0c46ce1d", (101404, 488, 440, 10976, 1120, 0)));
    ("spam", ("d685cb09d9ccb2e4b65d32681571e7f4", (7763, 2112, 1104, 2144, 1040, 0)));
    ("optical", ("60a7d721267cc9c1b31f530c0a866245", (131462, 5632, 5632, 4416, 14856, 392)));
    ("face", ("efa774098e01fb76f9ad436438d19334", (10822, 1307, 1060, 2585, 779, 0)));
    ("bnn", ("54e751692999529dada1d44d5e9cf092", (535932, 836, 584, 2156, 12544, 0)));
  ]

let reference_case (b : Suite.bench) () =
  let g = b.Suite.graph hw in
  let inputs = b.Suite.workload () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  let digest, counts = List.assoc b.Suite.name reference_pins in
  Alcotest.(check string) "reference output digest" digest (outputs_digest r.Pld_kpn.Run_graph.outputs);
  let sum f = List.fold_left (fun a (_, c) -> a + f c) 0 r.Pld_kpn.Run_graph.op_counters in
  let ops, reads, writes, iters, muls, divs = counts in
  List.iter
    (fun (name, want, f) -> check_int name want (sum f))
    [
      ("ops", ops, fun c -> c.Interp.ops);
      ("reads", reads, fun c -> c.Interp.reads);
      ("writes", writes, fun c -> c.Interp.writes);
      ("loop iterations", iters, fun c -> c.Interp.loop_iterations);
      ("multiplies", muls, fun c -> c.Interp.multiplies);
      ("divides", divs, fun c -> c.Interp.divides);
    ];
  let app = Pld_core.Build.compile (Pld_fabric.Floorplan.u50 ()) g ~level:Pld_core.Build.O3 in
  let r3 = Pld_core.Runner.run app ~inputs in
  Alcotest.(check string) "-O3 output digest" digest (outputs_digest r3.Pld_core.Runner.outputs)

(* Each bench's -O3 monolithic P&R at the default seed: every
   position, the wirelength, overfill and move count, and every route
   ([Test_pnr.pnr_digest]). The -O1 placer's early exits never fire on
   these anneals, so the digests must not move. *)
let o3_pnr_pins =
  [
    ("rendering", "1b8592323688a2ad1c4545921ae4e639");
    ("digit", "dc86db0d9ba74d99f93f7162e8229daa");
    ("spam", "c5d098e95b21b74c59f3e835f50987e5");
    ("optical", "9f5e344f2dc33f82007f92456ca3aeb5");
    ("face", "3385747b6fda3e18cb64638cce877477");
    ("bnn", "0d44a6cd59314ddfbc00dda0b7368409");
  ]

let o3_pnr_case (b : Suite.bench) () =
  let app = Pld_core.Build.compile (Pld_fabric.Floorplan.u50 ()) (b.Suite.graph hw) ~level:Pld_core.Build.O3 in
  let pnr = (Pld_core.Build.monolithic_exn app).Pld_core.Flow.pnr3 in
  Alcotest.(check string) "-O3 pnr digest" (List.assoc b.Suite.name o3_pnr_pins)
    (Test_pnr.pnr_digest ~place:pnr.Pld_pnr.Pnr.place ~route:pnr.Pld_pnr.Pnr.route ())

(* The 35 -O1 page compiles of the six benches. A scratch anneal stops
   once the page is legal and its pre-route timing estimate meets the
   200 MHz overlay clock, or once it freezes. Neither exit changes
   which pages are legal or the overfill and route overuse the others
   keep; the full schedule took 2,722,504 moves over these pages. *)
let o1_illegal_pages =
  [
    ("rendering", "proj", 39.6, 0);
    ("rendering", "zmerge", 33.6, 0);
    ("spam", "scatter", 113.6, 0);
    ("spam", "reduce_sigmoid", 113.6, 0);
    ("optical", "unpack", 33.6, 0);
    ("optical", "weight_y", 60.6, 0);
    ("optical", "tensor_y", 71.0, 0);
    ("optical", "tensor_x", 67.0, 0);
    ("face", "integral", 113.6, 0);
    ("face", "strong_a", 63.6, 0);
    ("face", "collect", 33.6, 0);
    ("face", "weak_c", 105.2, 6);
    ("face", "weak_d", 104.6, 4);
  ]

let test_o1_pages_pinned () =
  let fp = Pld_fabric.Floorplan.u50 () in
  let pages =
    List.concat_map
      (fun (b : Suite.bench) ->
        let app = Pld_core.Build.compile fp (b.Suite.graph hw) ~level:Pld_core.Build.O1 in
        List.filter_map
          (fun (inst, c) ->
            match c with
            | Pld_core.Build.Hw_page o -> Some (b.Suite.name, inst, o.Pld_core.Flow.pnr)
            | Pld_core.Build.Soft_page _ -> None)
          app.Pld_core.Build.operators)
      Suite.all
  in
  check_int "page compiles" 35 (List.length pages);
  List.iter
    (fun (bench, inst, (r : Pld_pnr.Pnr.result)) ->
      let what = bench ^ "/" ^ inst in
      (match List.find_opt (fun (b, i, _, _) -> b = bench && i = inst) o1_illegal_pages with
      | None -> check_bool (what ^ " legal") true (Pld_pnr.Pnr.routed_ok r)
      | Some (_, _, overfill, overused) ->
          Alcotest.(check (float 1e-9)) (what ^ " overfill") overfill r.Pld_pnr.Pnr.place.Pld_pnr.Place.overfill;
          check_int (what ^ " route overuse") overused r.Pld_pnr.Pnr.route.Pld_pnr.Route.overused_edges);
      Alcotest.(check (float 0.0)) (what ^ " Fmax") 200.0 r.Pld_pnr.Pnr.timing.Pld_pnr.Sta.fmax_mhz)
    pages;
  let moves =
    List.fold_left (fun acc (_, _, r) -> acc + r.Pld_pnr.Pnr.place.Pld_pnr.Place.moves_evaluated) 0 pages
  in
  check_int "summed moves" 1_027_118 moves;
  check_bool "at most half the full schedule's" true (2 * moves <= 2_722_504)

(* The evaluator keeps narrow values as immediates, so a reference run
   allocates little beyond its tokens: fewer than 5 minor words per
   evaluated node over bnn, the largest run. Counted, not timed. *)
let test_reference_run_allocation () =
  let b = Suite.find "bnn" in
  let g = b.Suite.graph hw in
  let inputs = b.Suite.workload () in
  let before = Gc.minor_words () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  let words = Gc.minor_words () -. before in
  let nodes = List.fold_left (fun a (_, c) -> a + c.Interp.ops) 0 r.Pld_kpn.Run_graph.op_counters in
  let per_node = words /. float_of_int nodes in
  check_bool (Printf.sprintf "%.1f minor words per node (%d nodes)" per_node nodes) true (per_node < 5.0)

let test_optical_flow_shape () =
  (* The flow field of a 1-pixel right shift should be mostly negative
     u (content moved from left), near-zero v in the interior. *)
  let inputs = Optical_flow.workload () in
  let g = Optical_flow.graph () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  let out = Array.of_list (List.assoc "flow_out" r.Pld_kpn.Run_graph.outputs) in
  check_int "two words per pixel" (2 * Optical_flow.height * Optical_flow.width) (Array.length out)

let test_digit_labels_in_range () =
  let inputs = Digit_recog.workload () in
  let g = Digit_recog.graph () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  List.iter
    (fun v ->
      let l = Value.to_int v in
      check_bool "label 0..9" true (l >= 0 && l <= 9))
    (List.assoc "labels_out" r.Pld_kpn.Run_graph.outputs)

let test_spam_verdicts_binary () =
  let inputs = Spam_filter.workload () in
  let g = Spam_filter.graph () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  List.iter
    (fun v -> check_bool "0 or 1" true (Value.to_int v = 0 || Value.to_int v = 1))
    (List.assoc "verdict_out" r.Pld_kpn.Run_graph.outputs)

let test_rendering_depths_bounded () =
  let inputs = Rendering.workload () in
  let g = Rendering.graph () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  List.iter
    (fun v ->
      let z = Value.to_int v in
      check_bool "depth in [0,255]" true (z >= 0 && z <= 255))
    (List.assoc "frame_out" r.Pld_kpn.Run_graph.outputs)

let test_bnn_classes_in_range () =
  let inputs = Bnn.workload () in
  let g = Bnn.graph () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  let out = List.assoc "class_out" r.Pld_kpn.Run_graph.outputs in
  check_int "one class per image" Bnn.n_images (List.length out);
  List.iter (fun v -> check_bool "class 0..9" true (Value.to_int v >= 0 && Value.to_int v < 10)) out

let test_face_window_count () =
  let inputs = Face_detect.workload () in
  let g = Face_detect.graph () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  check_int "one score per window" Face_detect.n_windows
    (List.length (List.assoc "faces_out" r.Pld_kpn.Run_graph.outputs))

let prop_rendering_random_workloads =
  QCheck.Test.make ~name:"rendering matches reference on random triangles" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let inputs = Rendering.workload ~seed () in
      let g = Rendering.graph () in
      let r = Pld_kpn.Run_graph.run g ~inputs in
      Rendering.check ~inputs r.Pld_kpn.Run_graph.outputs)

let prop_bnn_random_workloads =
  QCheck.Test.make ~name:"bnn matches reference on random images" ~count:5
    QCheck.(int_bound 10_000)
    (fun wseed ->
      let inputs = Bnn.workload ~seed:wseed () in
      (* Note: the graph's weights use the default seed; only the image
         workload varies (the reference must match that asymmetry). *)
      let g = Bnn.graph () in
      let r = Pld_kpn.Run_graph.run g ~inputs in
      let expect = Bnn.reference inputs in
      List.map Value.to_int (List.assoc "class_out" r.Pld_kpn.Run_graph.outputs) = expect)

let suite =
  List.concat_map
    (fun (b : Suite.bench) ->
      [
        (b.Suite.name ^ ": functional vs reference", `Quick, functional_case b);
        (b.Suite.name ^ ": -O0 softcore run", `Slow, o0_case b);
        (b.Suite.name ^ ": -O1 page build + run", `Slow, o1_case b);
        (b.Suite.name ^ ": reference interpreter pinned", `Quick, reference_case b);
      ])
    Suite.all
  @ [
      ("optical flow output shape", `Quick, test_optical_flow_shape);
      ("digit labels in range", `Quick, test_digit_labels_in_range);
      ("spam verdicts binary", `Quick, test_spam_verdicts_binary);
      ("rendering depths bounded", `Quick, test_rendering_depths_bounded);
      ("bnn classes in range", `Quick, test_bnn_classes_in_range);
      ("face window count", `Quick, test_face_window_count);
      ("reference run allocates under 5 words per node", `Quick, test_reference_run_allocation);
      QCheck_alcotest.to_alcotest prop_rendering_random_workloads;
      QCheck_alcotest.to_alcotest prop_bnn_random_workloads;
      ("-O1 pages: legality, overfill and Fmax kept in fewer moves", `Quick, test_o1_pages_pinned);
    ]
  @ List.map (fun (b : Suite.bench) -> (b.Suite.name ^ ": -O3 P&R pinned", `Quick, o3_pnr_case b)) Suite.all
