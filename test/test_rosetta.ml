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
  Alcotest.(check string) "output digest" digest (outputs_digest r.Pld_core.Runner.outputs)

let o1_case (b : Suite.bench) () =
  let fp = Pld_fabric.Floorplan.u50 () in
  let g = b.Suite.graph hw in
  let inputs = b.Suite.workload () in
  let app = Pld_core.Build.compile fp g ~level:Pld_core.Build.O1 in
  check_bool "every operator fits a page" true (List.length app.Pld_core.Build.assignment > 0);
  let r = Pld_core.Runner.run app ~inputs in
  check_bool "page run validates" true (b.Suite.check ~inputs r.Pld_core.Runner.outputs)

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
      ])
    Suite.all
  @ [
      ("optical flow output shape", `Quick, test_optical_flow_shape);
      ("digit labels in range", `Quick, test_digit_labels_in_range);
      ("spam verdicts binary", `Quick, test_spam_verdicts_binary);
      ("rendering depths bounded", `Quick, test_rendering_depths_bounded);
      ("bnn classes in range", `Quick, test_bnn_classes_in_range);
      ("face window count", `Quick, test_face_window_count);
      QCheck_alcotest.to_alcotest prop_rendering_random_workloads;
      QCheck_alcotest.to_alcotest prop_bnn_random_workloads;
    ]
