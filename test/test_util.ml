open Pld_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    check_bool "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check_bool "split streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* The first draws of [Rng.create 42], pinned: any change to the
   stream, in any accessor, shows here, where [test_rng_determinism]
   (two equal generators agree) would not notice. *)
let test_rng_stream_pinned () =
  let draws f = List.init 8 (fun _ -> f ()) in
  let g () = Rng.create 42 in
  let r = g () in
  Alcotest.(check (list int64))
    "bits64"
    [
      -4767286540954276203L; 2949826092126892291L; 5139283748462763858L; 6349198060258255764L;
      701532786141963250L; -2430762948046562554L; 4028864712777624925L; -3677692746721775708L;
    ]
    (draws (fun () -> Rng.bits64 r));
  let r = g () in
  Alcotest.(check (list int))
    "int 1000" [ 802; 145; 929; 882; 625; 627; 462; 50 ]
    (draws (fun () -> Rng.int r 1000));
  let r = g () in
  Alcotest.(check (list (float 0.0)))
    "float 1.0"
    [
      0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2;
      0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1;
    ]
    (draws (fun () -> Rng.float r 1.0));
  let child = Rng.split (g ()) in
  Alcotest.(check (list int64))
    "split child"
    [
      6332618229526065668L; -816328817471504299L; 8971565426155258802L; 1242533817266198696L;
      -5959852680200513735L; 1245346008178237623L; 3603600226484403572L; -4893543810735773810L;
    ]
    (draws (fun () -> Rng.bits64 child))

let test_topo_simple () =
  let order = Topo.sort ~n:4 ~edges:[ (0, 1); (1, 2); (0, 3); (3, 2) ] in
  let pos = Array.make 4 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  check_bool "0 before 1" true (pos.(0) < pos.(1));
  check_bool "1 before 2" true (pos.(1) < pos.(2));
  check_bool "3 before 2" true (pos.(3) < pos.(2))

let test_topo_cycle () =
  match Topo.sort ~n:3 ~edges:[ (0, 1); (1, 2); (2, 0) ] with
  | _ -> Alcotest.fail "expected Cycle"
  | exception Topo.Cycle c -> check_bool "cycle nonempty" true (c <> [])

let test_topo_longest_path () =
  let dist = Topo.longest_path ~n:4 ~edges:[ (0, 1, 2.0); (1, 2, 3.0); (0, 2, 4.0); (2, 3, 1.0) ] in
  Alcotest.(check (float 1e-9)) "sink distance" 6.0 dist.(3);
  Alcotest.(check (float 1e-9)) "middle" 5.0 dist.(2)

let test_topo_empty () =
  Alcotest.(check (list int)) "empty graph sorts to []" [] (Topo.sort ~n:0 ~edges:[]);
  Alcotest.(check (list int)) "isolated vertices in order" [ 0; 1; 2 ] (Topo.sort ~n:3 ~edges:[])

let test_topo_self_edge () =
  (match Topo.sort ~n:3 ~edges:[ (0, 1); (1, 1) ] with
  | _ -> Alcotest.fail "expected Cycle"
  | exception Topo.Cycle c -> Alcotest.(check (list int)) "self-edge is its own witness" [ 1 ] c)

let test_topo_duplicate_edges () =
  (* A repeated edge bumps the in-degree twice; the sort must still
     emit each vertex exactly once, in the same order as without the
     duplicate. *)
  let order = Topo.sort ~n:3 ~edges:[ (0, 1); (0, 1); (1, 2) ] in
  Alcotest.(check (list int)) "each vertex once" [ 0; 1; 2 ] order;
  Alcotest.(check (list int)) "same as deduplicated"
    (Topo.sort ~n:3 ~edges:[ (0, 1); (1, 2) ])
    order

let test_topo_vertex_range () =
  match Topo.sort ~n:2 ~edges:[ (0, 2) ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg -> check_bool "names the module" true (String.length msg > 0)

let test_union_find () =
  let uf = Union_find.create 6 in
  Union_find.union uf 0 1;
  Union_find.union uf 1 2;
  Union_find.union uf 4 5;
  check_bool "0~2" true (Union_find.same uf 0 2);
  check_bool "0!~4" false (Union_find.same uf 0 4);
  let groups = Union_find.groups uf in
  Alcotest.(check (list (list int))) "groups" [ [ 0; 1; 2 ]; [ 3 ]; [ 4; 5 ] ] groups

let test_union_find_edges () =
  let uf = Union_find.create 0 in
  Alcotest.(check (list (list int))) "empty structure, no groups" [] (Union_find.groups uf);
  let uf = Union_find.create 3 in
  Alcotest.(check (list (list int))) "fresh structure is all singletons"
    [ [ 0 ]; [ 1 ]; [ 2 ] ] (Union_find.groups uf);
  check_bool "same is reflexive" true (Union_find.same uf 1 1);
  Union_find.union uf 0 0;
  check_bool "self-union is a no-op" false (Union_find.same uf 0 1);
  Union_find.union uf 0 1;
  Union_find.union uf 0 1;
  Alcotest.(check (list (list int))) "repeated union is idempotent"
    [ [ 0; 1 ]; [ 2 ] ] (Union_find.groups uf)

let test_union_find_chain_compresses () =
  (* A long left-leaning chain must still answer find in one pass
     afterwards: every element points at the root once queried. *)
  let n = 200 in
  let uf = Union_find.create n in
  for i = 0 to n - 2 do
    Union_find.union uf i (i + 1)
  done;
  let root = Union_find.find uf 0 in
  for i = 0 to n - 1 do
    check_int "single class" root (Union_find.find uf i)
  done;
  check_int "one group of n" 1 (List.length (Union_find.groups uf))

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile 25.0 xs)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.0; 0.1; 0.9; 1.0 ] in
  let counts = List.map (fun (_, _, c) -> c) h in
  Alcotest.(check (list int)) "bin counts" [ 2; 2 ] counts

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geometric_mean [ 1.0; 2.0; 4.0 ])

let test_digest_stable () =
  let d1 = Digest_lite.of_string "hello" in
  let d2 = Digest_lite.of_string "hello" in
  Alcotest.(check string) "stable" d1 d2;
  check_bool "distinct" true (Digest_lite.of_string "hellp" <> d1);
  check_int "hex length" 16 (String.length d1)

let test_digest_combine () =
  let a = Digest_lite.of_string "a" and b = Digest_lite.of_string "b" in
  check_bool "order matters" true (Digest_lite.combine [ a; b ] <> Digest_lite.combine [ b; a ])

let test_table_render () =
  let s = Table.render ~header:[ "name"; "value" ] [ [ "x"; "1" ]; [ "long-name"; "22" ] ] in
  check_bool "contains header" true (String.length s > 0);
  check_bool "has separator" true (String.contains s '=')

let test_table_ragged_and_aligned () =
  (* Ragged rows pad with empty cells; Right alignment pads on the left. *)
  let s =
    Table.render ~aligns:[ Table.Left; Table.Right ] ~header:[ "k"; "val" ]
      [ [ "a"; "7" ]; [ "b" ] ]
  in
  check_bool "ragged row rendered" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  let widths = List.map String.length lines in
  check_bool "all lines equally wide" true
    (match widths with [] -> false | w :: rest -> List.for_all (( = ) w) rest);
  check_bool "right-aligned value" true
    (List.exists (fun l -> String.length l >= 2 && contains_sub ~sub:"  7" l) lines)

let qcheck_topo_sort_valid =
  QCheck.Test.make ~name:"topo sort respects random DAG edges" ~count:200
    QCheck.(pair (int_range 1 20) (list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, raw_edges) ->
      (* Force a DAG by orienting edges from smaller to larger vertex. *)
      let edges =
        raw_edges
        |> List.filter_map (fun (u, v) ->
               let u = u mod n and v = v mod n in
               if u < v then Some (u, v) else if v < u then Some (v, u) else None)
      in
      let order = Pld_util.Topo.sort ~n ~edges in
      let pos = Array.make n 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.for_all (fun (u, v) -> pos.(u) < pos.(v)) edges)

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-100.) 100.))
    (fun xs ->
      let p1 = Pld_util.Stats.percentile 25.0 xs in
      let p2 = Pld_util.Stats.percentile 75.0 xs in
      p1 <= p2 +. 1e-9)

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng split", `Quick, test_rng_split_independent);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("rng stream pinned", `Quick, test_rng_stream_pinned);
    ("topo simple", `Quick, test_topo_simple);
    ("topo cycle detection", `Quick, test_topo_cycle);
    ("topo longest path", `Quick, test_topo_longest_path);
    ("topo empty graph", `Quick, test_topo_empty);
    ("topo self-edge rejected", `Quick, test_topo_self_edge);
    ("topo duplicate edges", `Quick, test_topo_duplicate_edges);
    ("topo vertex out of range", `Quick, test_topo_vertex_range);
    ("union-find", `Quick, test_union_find);
    ("union-find edge cases", `Quick, test_union_find_edges);
    ("union-find chain compression", `Quick, test_union_find_chain_compresses);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats histogram", `Quick, test_stats_histogram);
    ("stats geomean", `Quick, test_stats_geomean);
    ("digest stable", `Quick, test_digest_stable);
    ("digest combine order", `Quick, test_digest_combine);
    ("table render", `Quick, test_table_render);
    ("table ragged rows and alignment", `Quick, test_table_ragged_and_aligned);
    QCheck_alcotest.to_alcotest qcheck_topo_sort_valid;
    QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
  ]
