(* The benchmark's own checks: the edit generator stays compilable over
   long loops, every workload runs at toy size and reports every metric
   BENCHMARK.json names, and [check] classifies differences against the
   bounds. *)

open Pld_ir
module B = Pld_core.Build
module Suite = Pld_rosetta.Suite
module Json = Pld_telemetry.Json
module M = Perf.Measure

let pristine () = List.map (fun (b : Suite.bench) -> (b.Suite.name, b.Suite.graph Perf.Workload.hw)) Suite.all

(* 200 seeded edits, each compiled at -O1 on top of the previous edits
   to its bench: no operator ever outgrows its page. *)
let test_edits_stay_compilable () =
  let graphs = pristine () in
  let edits = Perf.Edits.create ~seed:1 graphs in
  let current = Hashtbl.create 8 in
  List.iter (fun (n, g) -> Hashtbl.replace current n g) graphs;
  let cache = B.create_cache () and fp = Pld_fabric.Floorplan.u50 () in
  let edited = Hashtbl.create 64 in
  for _ = 1 to 200 do
    let e = Perf.Edits.next edits in
    let g = Perf.Edits.apply edits (Hashtbl.find current e.Perf.Edits.bench) e in
    (match B.compile ~cache fp g ~level:B.O1 with
    | app -> Alcotest.(check bool) "the edit recompiles" true (app.B.report.B.recompiled >= 1)
    | exception Pld_core.Assign.No_fit msg -> Alcotest.failf "edit %d: %s" e.Perf.Edits.step msg);
    Hashtbl.replace current e.Perf.Edits.bench g;
    Hashtbl.replace edited (e.Perf.Edits.bench, e.Perf.Edits.inst) ()
  done;
  let operators =
    List.concat_map (fun (n, (g : Graph.t)) -> List.map (fun (i : Graph.instance) -> (n, i.Graph.inst_name)) g.Graph.instances) graphs
  in
  Alcotest.(check int) "every Rosetta operator was edited" (List.length operators)
    (List.length (List.filter (Hashtbl.mem edited) operators))

(* What the generator avoids: chaining touch_op grows the operator by
   one printf per step until it fits no page. *)
let test_chained_touch_outgrows_its_page () =
  let g = List.assoc "optical" (pristine ()) in
  let rec touch g k = if k = 0 then g else touch (Option.get (Graph.touch_op g "tensor_y")) (k - 1) in
  match B.compile (Pld_fabric.Floorplan.u50 ()) (touch g 200) ~level:B.O1 with
  | _ -> Alcotest.fail "200 chained touches still fit a page"
  | exception Pld_core.Assign.No_fit _ -> ()

let test_edits_are_seeded () =
  let seq seed =
    let t = Perf.Edits.create ~seed (pristine ()) in
    List.init 40 (fun _ -> Perf.Edits.next t)
  in
  Alcotest.(check bool) "same seed, same edits" true (seq 5 = seq 5);
  Alcotest.(check bool) "other seed, other edits" true (seq 5 <> seq 6)

(* The names and units BENCHMARK.json declares, as (name, unit). *)
let declared section =
  let doc = Json.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) in
  match Json.member section doc with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> Alcotest.fail "malformed metric entry")
        ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" section

(* One traced toy run: the end-to-end metrics it measured and the
   per-layer ones its trace attributed. *)
let toy_run name =
  let work = M.fresh_dir (".perf-test-" ^ name) in
  Fun.protect ~finally:(fun () -> M.rm_rf work) @@ fun () ->
  let tr = Perf.Layers.create ~store_dir:(Filename.concat work "trace") in
  let layers = Some tr and size = Perf.Workload.toy and seed = 1 in
  let t0 = Unix.gettimeofday () in
  let r =
    match name with
    | "serve-O1" -> Perf.Serve.run ~work ~size ~seed ~layers
    | _ ->
        let level = match name with "edit-O0" -> B.O0 | "edit-O1" -> B.O1 | _ -> B.O3 in
        Perf.Edit_loop.run ~work ~size ~seed ~level ~layers
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) (name ^ ": fail_frac = 0") 0 r.Perf.Workload.failed;
  Alcotest.(check bool) (name ^ ": attempted something") true (r.Perf.Workload.attempted > 0);
  Alcotest.(check bool) (Printf.sprintf "%s: toy size runs in under 5 s (%.1f s)" name wall) true (wall < 5.0);
  (r.Perf.Workload.metrics, Perf.Layers.metrics tr)

let test_toy name () =
  let e2e, layers = toy_run name in
  let names_units = List.map (fun (m : M.metric) -> (m.M.name, m.M.unit_)) in
  Alcotest.(check (list (pair string string)))
    (name ^ ": every end-to-end metric, with its unit")
    (declared "end_to_end") (names_units e2e);
  List.iter
    (fun (m : M.metric) -> Alcotest.(check bool) (name ^ ": " ^ m.M.name ^ " > 0") true (m.M.value > 0.0))
    e2e;
  Alcotest.(check (list (pair string string)))
    (name ^ ": every per-layer metric, with its unit")
    (declared "per_layer") (names_units layers);
  let get n = (List.find (fun (m : M.metric) -> m.M.name = n) layers).M.value in
  Alcotest.(check bool) (name ^ ": attribution explains the wall") true (get "attrib.explained_frac" > 0.5);
  Alcotest.(check bool) (name ^ ": tracing costs something") true (get "trace.overhead_frac" > 0.0)

let test_check_verdicts () =
  let b = { Perf.Check.metric = "m"; lower_is_better = true; bound = 0.1 } in
  let verdict parent change =
    let _, _, _, v = Perf.Check.compare_sets b ~parent ~change in
    Perf.Check.verdict_name v
  in
  let base = [ 1.0; 1.01; 0.99; 1.0; 1.02 ] in
  Alcotest.(check string) "same" "agree" (verdict base base);
  Alcotest.(check string) "20% slower" "worse" (verdict base (List.map (fun x -> x *. 1.2) base));
  Alcotest.(check string) "20% faster" "better" (verdict base (List.map (fun x -> x *. 0.8) base));
  Alcotest.(check string) "noisier than the bound" "unresolved" (verdict base [ 0.7; 1.0; 1.3; 0.8; 1.2 ]);
  let q1, med, q3 = Perf.Check.quartiles [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ] in
  (* statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  Alcotest.(check (list (float 1e-9))) "Python's exclusive quartiles" [ 2.75; 5.5; 8.25 ] [ q1; med; q3 ]

let workloads = [ "edit-O0"; "edit-O1"; "edit-O3"; "serve-O1" ]

let () =
  Alcotest.run "perf"
    [
      ( "edits",
        [
          Alcotest.test_case "200 seeded edits compile at -O1" `Quick test_edits_stay_compilable;
          Alcotest.test_case "chained touch_op outgrows its page" `Quick test_chained_touch_outgrows_its_page;
          Alcotest.test_case "edits are seeded" `Quick test_edits_are_seeded;
        ] );
      ("smoke", List.map (fun w -> Alcotest.test_case (w ^ " at toy size") `Quick (test_toy w)) workloads);
      ("check", [ Alcotest.test_case "verdicts against a bound" `Quick test_check_verdicts ]);
    ]
