open Pld_fabric
module N = Pld_netlist.Netlist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- fabric ---------- *)

let test_device_resources () =
  let d = Device.u50_model () in
  let r = Device.total_user_resources d in
  check_bool "tens of kLUTs" true (r.N.luts > 20_000 && r.N.luts < 80_000);
  check_bool "has BRAM" true (r.N.brams > 50);
  check_bool "has DSP" true (r.N.dsps > 100)

let test_floorplan_pages () =
  let fp = Floorplan.u50 () in
  check_int "22 pages" 22 (List.length fp.Floorplan.pages);
  let summary = Floorplan.type_summary fp in
  check_int "4 page types" 4 (List.length summary);
  Alcotest.(check (list int)) "counts per type" [ 7; 7; 7; 1 ] (List.map (fun (_, _, n) -> n) summary)

let test_pages_disjoint () =
  let fp = Floorplan.u50 () in
  List.iteri
    (fun i (p : Floorplan.page) ->
      List.iteri
        (fun j (q : Floorplan.page) ->
          if i < j then begin
            let overlap =
              p.rect.Floorplan.x0 <= q.rect.Floorplan.x1 && q.rect.Floorplan.x0 <= p.rect.Floorplan.x1
              && p.rect.Floorplan.y0 <= q.rect.Floorplan.y1 && q.rect.Floorplan.y0 <= p.rect.Floorplan.y1
            in
            check_bool (Printf.sprintf "pages %d/%d disjoint" p.page_id q.page_id) false overlap
          end)
        fp.Floorplan.pages)
    fp.Floorplan.pages

let test_pages_no_slr_crossing () =
  let fp = Floorplan.u50 () in
  List.iter
    (fun (p : Floorplan.page) ->
      check_int
        (Printf.sprintf "page %d in one SLR" p.page_id)
        (Device.slr_of_row fp.Floorplan.device p.rect.Floorplan.y0)
        (Device.slr_of_row fp.Floorplan.device p.rect.Floorplan.y1))
    fp.Floorplan.pages

let test_page_lookup () =
  let fp = Floorplan.u50 () in
  let p = Floorplan.find_page fp 1 in
  Alcotest.(check (option int))
    "tile maps back to page" (Some 1)
    (Option.map (fun (q : Floorplan.page) -> q.page_id)
       (Floorplan.page_of_tile fp p.rect.Floorplan.x0 p.rect.Floorplan.y0));
  check_bool "shell is no page" true (Floorplan.page_of_tile fp 37 10 = None)

let test_rrg_structure () =
  let fp = Floorplan.u50 () in
  let rrg = Rrg.build fp.Floorplan.device { Floorplan.x0 = 0; y0 = 2; x1 = 9; y1 = 5 } in
  check_int "nodes" 40 rrg.Rrg.nodes;
  check_bool "edges bidirectional" true (Array.length rrg.Rrg.edges = 2 * ((9 * 4) + (10 * 3)));
  let n = Rrg.node_of_tile rrg 3 4 in
  Alcotest.(check (pair int int)) "roundtrip" (3, 4) (Rrg.tile_of_node rrg n)

let test_rrg_slr_edges_scarcer () =
  let fp = Floorplan.u50 () in
  let rrg = Rrg.build fp.Floorplan.device fp.Floorplan.l1_region in
  let slr_edges = Array.to_list rrg.Rrg.edges |> List.filter (fun e -> e.Rrg.capacity < 14) in
  check_bool "SLR crossings exist" true (slr_edges <> []);
  List.iter (fun e -> check_bool "slower" true (e.Rrg.delay_ns > 0.2)) slr_edges

(* ---------- place & route & timing ---------- *)

(* [fillers] unconnected register cells ride along at the end. *)
let small_netlist ?(fillers = 0) n_cells seed =
  let rng = Pld_util.Rng.create seed in
  let b = N.Builder.create "rand" in
  let port_in = N.Builder.add_cell b ~name:"pin" ~kind:(N.Stream_in "in") ~res:(N.res_luts 24) ~delay_ns:0.8 in
  let port_out = N.Builder.add_cell b ~name:"pout" ~kind:(N.Stream_out "out") ~res:(N.res_luts 24) ~delay_ns:0.8 in
  let cells =
    List.init n_cells (fun i ->
        N.Builder.add_cell b ~name:(Printf.sprintf "c%d" i) ~kind:N.Arith
          ~res:(N.res_luts (8 + Pld_util.Rng.int rng 24))
          ~delay_ns:1.0)
  in
  let all = Array.of_list ((port_in :: cells) @ [ port_out ]) in
  Array.iteri
    (fun i c -> if i > 0 then ignore (N.Builder.add_net b ~name:(Printf.sprintf "n%d" i) ~driver:all.(i - 1) ~sinks:[ c ]))
    all;
  (* extra random fanout *)
  for k = 0 to (n_cells / 2) - 1 do
    let a = all.(Pld_util.Rng.int rng (Array.length all)) in
    let bdst = all.(Pld_util.Rng.int rng (Array.length all)) in
    if a <> bdst then ignore (N.Builder.add_net b ~name:(Printf.sprintf "r%d" k) ~driver:a ~sinks:[ bdst ])
  done;
  for i = 0 to fillers - 1 do
    ignore (N.Builder.add_cell b ~name:(Printf.sprintf "f%d" i) ~kind:N.Reg ~res:(N.res_luts 4) ~delay_ns:0.5)
  done;
  N.Builder.finish b

let page_region () =
  let fp = Floorplan.u50 () in
  (fp, (Floorplan.find_page fp 1).Floorplan.rect)

let test_place_legalizes () =
  let fp, region = page_region () in
  let nl = small_netlist 20 3 in
  let r = Pld_pnr.Place.run ~seed:2 ~clock_target_mhz:300.0 ~device:fp.Floorplan.device ~region nl in
  Alcotest.(check (float 0.0)) "no overfill" 0.0 r.Pld_pnr.Place.overfill;
  Array.iter
    (fun (x, y) ->
      check_bool "inside region" true
        (x >= region.Floorplan.x0 && x <= region.Floorplan.x1 && y >= region.Floorplan.y0 && y <= region.Floorplan.y1))
    r.Pld_pnr.Place.positions

let test_place_respects_pins () =
  let fp, region = page_region () in
  let nl = small_netlist 10 4 in
  let page = Floorplan.find_page fp 1 in
  let r =
    Pld_pnr.Place.run ~seed:2 ~clock_target_mhz:300.0 ~pins:[ ("in", page.Floorplan.noc_leaf); ("out", page.Floorplan.noc_leaf) ]
      ~device:fp.Floorplan.device ~region nl
  in
  (* Cell 0 is the input port. *)
  Alcotest.(check (pair int int)) "pin honored" page.Floorplan.noc_leaf r.Pld_pnr.Place.positions.(0)

let test_place_rejects_oversize () =
  let fp, region = page_region () in
  let b = N.Builder.create "huge" in
  for i = 0 to 200 do
    ignore (N.Builder.add_cell b ~name:(Printf.sprintf "c%d" i) ~kind:N.Arith ~res:(N.res_luts 40) ~delay_ns:1.0)
  done;
  ignore (N.Builder.add_net b ~name:"n" ~driver:0 ~sinks:[ 1 ]);
  match Pld_pnr.Place.run ~clock_target_mhz:300.0 ~device:fp.Floorplan.device ~region (N.Builder.finish b) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_route_legal_and_timed () =
  let fp, region = page_region () in
  let nl = small_netlist 20 7 in
  let place = Pld_pnr.Place.run ~seed:2 ~clock_target_mhz:300.0 ~device:fp.Floorplan.device ~region nl in
  let route =
    Pld_pnr.Route.run ~device:fp.Floorplan.device ~region ~placement:place.Pld_pnr.Place.positions nl
  in
  check_int "no overuse" 0 route.Pld_pnr.Route.overused_edges;
  let sta = Pld_pnr.Sta.analyze nl ~net_delay_ns:route.Pld_pnr.Route.net_delay_ns in
  check_bool "sane fmax" true (sta.Pld_pnr.Sta.fmax_mhz > 50.0 && sta.Pld_pnr.Sta.fmax_mhz <= 300.0)

let test_implement_end_to_end () =
  let fp, region = page_region () in
  let nl = small_netlist 15 9 in
  let r = Pld_pnr.Pnr.implement ~device:fp.Floorplan.device ~region nl in
  check_bool "routed ok" true (Pld_pnr.Pnr.routed_ok r);
  check_bool "bitstream nonempty" true (Pld_pnr.Bitgen.size_bytes r.Pld_pnr.Pnr.bitstream > 0)

let test_bitstream_proportional () =
  let fp = Floorplan.u50 () in
  let nl = small_netlist 15 9 in
  let page = (Floorplan.find_page fp 1).Floorplan.rect in
  let small = Pld_pnr.Pnr.implement ~device:fp.Floorplan.device ~region:page nl in
  let big = Pld_pnr.Pnr.implement ~device:fp.Floorplan.device ~region:fp.Floorplan.l1_region nl in
  (* Partial bitstreams are much smaller than full-region ones (§2.3). *)
  check_bool "partial much smaller" true
    (10 * Pld_pnr.Bitgen.size_bytes small.Pld_pnr.Pnr.bitstream
    < Pld_pnr.Bitgen.size_bytes big.Pld_pnr.Pnr.bitstream)

let test_determinism () =
  let fp, region = page_region () in
  let nl = small_netlist 12 5 in
  let a = Pld_pnr.Pnr.implement ~seed:3 ~device:fp.Floorplan.device ~region nl in
  let b = Pld_pnr.Pnr.implement ~seed:3 ~device:fp.Floorplan.device ~region nl in
  Alcotest.(check string) "same bitstream for same seed" a.Pld_pnr.Pnr.bitstream.Pld_pnr.Bitgen.crc
    b.Pld_pnr.Pnr.bitstream.Pld_pnr.Bitgen.crc

let test_superlinear_runtime () =
  (* The heart of the paper: P&R effort grows super-linearly, so small
     page compiles are disproportionately cheaper. Effort is counted in
     annealing moves evaluated, which a fixed seed makes exact. *)
  let fp = Floorplan.u50 () in
  let region = fp.Floorplan.l1_region in
  let moves nl =
    (Pld_pnr.Pnr.implement ~device:fp.Floorplan.device ~region nl).Pld_pnr.Pnr.place
      .Pld_pnr.Place.moves_evaluated
  in
  let m_small = moves (small_netlist 12 11) and m_big = moves (small_netlist 120 11) in
  check_bool
    (Printf.sprintf "10x cells -> >15x moves (%d vs %d)" m_big m_small)
    true
    (m_big > 15 * m_small)

(* ---------- incremental & multi-seed P&R ---------- *)

(* [small_netlist] with one cell's resources changed — a one-cell edit. *)
let edit_one_cell (nl : N.t) victim =
  let b = N.Builder.create nl.N.nl_name in
  Array.iter
    (fun (c : N.cell) ->
      let res = if c.N.cname = victim then N.res_luts 40 else c.N.res in
      ignore (N.Builder.add_cell b ~name:c.N.cname ~kind:c.N.kind ~res ~delay_ns:c.N.delay_ns))
    nl.N.cells;
  Array.iter
    (fun (n : N.net) -> ignore (N.Builder.add_net b ~name:n.N.nname ~driver:n.N.driver ~sinks:n.N.sinks))
    nl.N.nets;
  N.Builder.finish b

let test_netlist_diff () =
  let nl = small_netlist 10 3 in
  let d = N.diff nl nl in
  check_bool "self diff empty" true (N.diff_is_empty d);
  check_int "all cells kept" (N.cell_count nl) (List.length d.N.cells_kept);
  check_int "all nets kept" (N.net_count nl) (List.length d.N.nets_kept);
  let nl2 = edit_one_cell nl "c3" in
  let d2 = N.diff nl nl2 in
  check_int "one cell changed" 1 (List.length d2.N.cells_changed);
  check_int "no cells removed" 0 (List.length d2.N.cells_removed);
  check_bool "small change fraction" true (N.diff_change_fraction d2 < 0.2)

let test_place_route_deterministic () =
  let fp, region = page_region () in
  let nl = small_netlist 18 6 in
  let p1 = Pld_pnr.Place.run ~seed:5 ~clock_target_mhz:300.0 ~device:fp.Floorplan.device ~region nl in
  let p2 = Pld_pnr.Place.run ~seed:5 ~clock_target_mhz:300.0 ~device:fp.Floorplan.device ~region nl in
  check_bool "same positions for same seed" true (p1.Pld_pnr.Place.positions = p2.Pld_pnr.Place.positions);
  let r1 = Pld_pnr.Route.run ~device:fp.Floorplan.device ~region ~placement:p1.Pld_pnr.Place.positions nl in
  let r2 = Pld_pnr.Route.run ~device:fp.Floorplan.device ~region ~placement:p2.Pld_pnr.Place.positions nl in
  check_bool "same routes for same seed" true (r1.Pld_pnr.Route.routes = r2.Pld_pnr.Route.routes)

let test_delta_empty_diff () =
  let fp, region = page_region () in
  let nl = small_netlist 16 8 in
  let base = Pld_pnr.Pnr.implement ~seed:2 ~device:fp.Floorplan.device ~region nl in
  let d = Pld_pnr.Pnr.implement_delta ~seed:2 ~previous:base ~device:fp.Floorplan.device ~region nl in
  (match d.Pld_pnr.Pnr.delta with
  | Some s ->
      check_bool "delta path taken" true (s.Pld_pnr.Pnr.fallback = None);
      check_int "nothing rerouted" 0 s.Pld_pnr.Pnr.nets_rerouted;
      check_int "no cells moved" 0 s.Pld_pnr.Pnr.cells_moved
  | None -> Alcotest.fail "delta stats missing");
  check_bool "placement untouched" true (d.Pld_pnr.Pnr.placement = base.Pld_pnr.Pnr.placement);
  Alcotest.(check string) "identical bitstream" base.Pld_pnr.Pnr.bitstream.Pld_pnr.Bitgen.crc
    d.Pld_pnr.Pnr.bitstream.Pld_pnr.Bitgen.crc

let test_delta_small_edit () =
  let fp, region = page_region () in
  let nl = small_netlist 16 8 in
  let base = Pld_pnr.Pnr.implement ~seed:2 ~device:fp.Floorplan.device ~region nl in
  let nl2 = edit_one_cell nl "c5" in
  let d = Pld_pnr.Pnr.implement_delta ~seed:2 ~previous:base ~device:fp.Floorplan.device ~region nl2 in
  check_bool "delta result legal" true (Pld_pnr.Pnr.routed_ok d);
  match d.Pld_pnr.Pnr.delta with
  | Some s ->
      check_bool "delta path taken" true (s.Pld_pnr.Pnr.fallback = None);
      check_bool "most cells kept" true (s.Pld_pnr.Pnr.cells_kept > N.cell_count nl2 * 3 / 4);
      check_bool "most routes preserved" true (s.Pld_pnr.Pnr.nets_preserved > 0)
  | None -> Alcotest.fail "delta stats missing"

let test_multi_seed_never_worse () =
  let fp, region = page_region () in
  let nl = small_netlist 14 10 in
  let seeds = [ 1; 2; 3 ] in
  let multi =
    Pld_pnr.Pnr.implement_multi ~seeds ~device:fp.Floorplan.device ~region nl
  in
  check_bool "multi result legal" true (Pld_pnr.Pnr.routed_ok multi);
  let solos =
    List.map (fun s -> Pld_pnr.Pnr.implement ~seed:s ~device:fp.Floorplan.device ~region nl) seeds
  in
  List.iter2
    (fun s (r : Pld_pnr.Pnr.result) ->
      check_bool
        (Printf.sprintf "multi at least as fast as seed %d" s)
        true
        (multi.Pld_pnr.Pnr.timing.Pld_pnr.Sta.fmax_mhz
        >= r.Pld_pnr.Pnr.timing.Pld_pnr.Sta.fmax_mhz -. 1e-9))
    seeds solos;
  (* Racing on domains changes nothing a seed computes: the winner is
     exactly one seed's solo run. *)
  check_bool "winner's placement is one seed's solo placement" true
    (List.exists (fun (r : Pld_pnr.Pnr.result) -> r.Pld_pnr.Pnr.placement = multi.Pld_pnr.Pnr.placement) solos)

(* ---------- P&R output pinned across commits ---------- *)

(* A seeded netlist with stream pins, BRAM and DSP cells and multi-sink
   nets: every path of the placer's move loop, the hard-block initial
   scatter and the router is exercised. *)
let pin_netlist ?(edited = false) () =
  let rng = Pld_util.Rng.create 23 in
  let b = N.Builder.create "pin" in
  let port_in = N.Builder.add_cell b ~name:"pin" ~kind:(N.Stream_in "in") ~res:(N.res_luts 24) ~delay_ns:0.8 in
  let port_out = N.Builder.add_cell b ~name:"pout" ~kind:(N.Stream_out "out") ~res:(N.res_luts 24) ~delay_ns:0.8 in
  let cells =
    List.init 36 (fun i ->
        let luts = 6 + Pld_util.Rng.int rng 28 in
        let kind, res =
          if i mod 6 = 2 then (N.Mem, { (N.res_luts 4) with N.brams = 1 })
          else if i mod 9 = 4 then (N.Mul, { (N.res_luts 8) with N.dsps = 1 })
          else (N.Arith, { (N.res_luts luts) with N.ffs = luts })
        in
        (* The edit grows one LUT cell into a BRAM user: it changes
           resource class, so its old tile cannot seed it. *)
        let res = if edited && i = 3 then { res with N.brams = 1 } else res in
        N.Builder.add_cell b ~name:(Printf.sprintf "c%d" i) ~kind ~res ~delay_ns:1.0)
  in
  let all = Array.of_list ((port_in :: cells) @ [ port_out ]) in
  let n = Array.length all in
  Array.iteri
    (fun i c -> if i > 0 then ignore (N.Builder.add_net b ~name:(Printf.sprintf "n%d" i) ~driver:all.(i - 1) ~sinks:[ c ]))
    all;
  for k = 0 to 11 do
    let d = all.(Pld_util.Rng.int rng n) in
    let s1 = all.(Pld_util.Rng.int rng n) and s2 = all.(Pld_util.Rng.int rng n) in
    (* The edit also rewires one fanout net, releasing its cells. *)
    let s2 = if edited && k = 0 then all.((s2 + 5) mod n) else s2 in
    ignore (N.Builder.add_net b ~name:(Printf.sprintf "r%d" k) ~driver:d ~sinks:(List.sort_uniq compare [ s1; s2 ]))
  done;
  N.Builder.finish b

(* A digest over printed integers: positions, wirelength, overfill's
   bit pattern and the move count, then every route's edges. *)
let pnr_digest ?place ?route () =
  let b = Buffer.create 4096 in
  Option.iter
    (fun (p : Pld_pnr.Place.result) ->
      Array.iter (fun (x, y) -> Printf.bprintf b "%d,%d;" x y) p.Pld_pnr.Place.positions;
      Printf.bprintf b "|wl %d|over %Ld|moves %d|" p.Pld_pnr.Place.wirelength
        (Int64.bits_of_float p.Pld_pnr.Place.overfill) p.Pld_pnr.Place.moves_evaluated)
    place;
  Option.iter
    (fun (r : Pld_pnr.Route.result) ->
      Array.iter
        (fun (rt : Pld_pnr.Route.route) ->
          Printf.bprintf b "%d:" rt.Pld_pnr.Route.net_id;
          List.iter (Printf.bprintf b "%d,") rt.Pld_pnr.Route.edges;
          Buffer.add_char b ';')
        r.Pld_pnr.Route.routes;
      Printf.bprintf b "|iters %d|overused %d|wire %d|routed %d" r.Pld_pnr.Route.iterations
        r.Pld_pnr.Route.overused_edges r.Pld_pnr.Route.total_wire r.Pld_pnr.Route.nets_routed)
    route;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The anneal's two exits. Moving an unconnected filler cell never
   changes the cost, so every temperature accepts well over 1% of its
   moves and the frozen exit cannot fire. Cells of 1 ns cap Fmax at
   1 GHz, so no placement meets a 1.5 GHz target: that anneal runs the
   full schedule, the same placement, bit for bit, as recorded before
   the exits existed. At 200 MHz the page is done after a few
   temperatures, legal. *)
let test_place_exits () =
  let fp, region = page_region () in
  let nl = small_netlist ~fillers:10 20 3 in
  let place clock_target_mhz =
    Pld_pnr.Place.run ~seed:2 ~clock_target_mhz ~device:fp.Floorplan.device ~region nl
  in
  let full = place 1500.0 and fast = place 200.0 in
  Alcotest.(check string) "missed target: the full schedule" "49ea6f47799d55d33109fc73b45aee14"
    (pnr_digest ~place:full ());
  Alcotest.(check (float 0.0)) "met target: legal" 0.0 fast.Pld_pnr.Place.overfill;
  check_bool
    (Printf.sprintf "met target: under a quarter of the moves (%d of %d)"
       fast.Pld_pnr.Place.moves_evaluated full.Pld_pnr.Place.moves_evaluated)
    true
    (4 * fast.Pld_pnr.Place.moves_evaluated < full.Pld_pnr.Place.moves_evaluated)

(* Placements at a fixed seed are a contract across commits: a faster
   placer or router must reproduce these digests exactly. *)
let test_pnr_output_pinned () =
  let fp, region = page_region () in
  let device = fp.Floorplan.device in
  let leaf = (Floorplan.find_page fp 1).Floorplan.noc_leaf in
  let pins = [ ("in", leaf); ("out", leaf) ] in
  let nl = pin_netlist () and nl2 = pin_netlist ~edited:true () in
  let place = Pld_pnr.Place.run ~seed:3 ~clock_target_mhz:300.0 ~pins ~device ~region nl in
  let route = Pld_pnr.Route.run ~device ~region ~placement:place.Pld_pnr.Place.positions nl in
  let d = N.diff nl nl2 in
  let previous = place.Pld_pnr.Place.positions in
  let frozen = Pld_pnr.Place.refine ~seed:3 ~pins ~device ~region ~previous ~diff:d nl2 in
  let thawed = Pld_pnr.Place.refine ~seed:3 ~pins ~freeze:false ~device ~region ~previous ~diff:d nl2 in
  let keep =
    List.filter
      (fun (old_ni, new_ni) ->
        let o = nl.N.nets.(old_ni) and n = nl2.N.nets.(new_ni) in
        List.for_all2
          (fun oc nc -> previous.(oc) = frozen.Pld_pnr.Place.positions.(nc))
          (o.N.driver :: o.N.sinks) (n.N.driver :: n.N.sinks))
      d.N.nets_kept
  in
  let rerouted =
    Pld_pnr.Route.run ~reuse:{ Pld_pnr.Route.prev = route; keep } ~device ~region
      ~placement:frozen.Pld_pnr.Place.positions nl2
  in
  let pinned = Alcotest.(check string) in
  pinned "Place.run + Route.run" "1c79c11c33161660ae3d1dfa180917ca" (pnr_digest ~place ~route ());
  pinned "Place.refine freeze:true" "140ff3a9c0a80616b653a8309d71aa29" (pnr_digest ~place:frozen ());
  pinned "Place.refine freeze:false" "9f3261ff6118d90d7f661f4eaa75d1fb" (pnr_digest ~place:thawed ());
  pinned "Route.run ~reuse" "f4b209bf44ca7a1da778cc7a0db5ef60" (pnr_digest ~route:rerouted ())

let prop_sta_fmax_bounded =
  QCheck.Test.make ~name:"sta fmax within (0, clock target]" ~count:20
    QCheck.(pair (int_range 3 25) (int_range 0 1000))
    (fun (n, seed) ->
      let fp, region = page_region () in
      let nl = small_netlist n seed in
      let place = Pld_pnr.Place.run ~seed:1 ~clock_target_mhz:300.0 ~device:fp.Floorplan.device ~region nl in
      let route = Pld_pnr.Route.run ~device:fp.Floorplan.device ~region ~placement:place.Pld_pnr.Place.positions nl in
      let sta = Pld_pnr.Sta.analyze nl ~net_delay_ns:route.Pld_pnr.Route.net_delay_ns in
      sta.Pld_pnr.Sta.fmax_mhz > 0.0 && sta.Pld_pnr.Sta.fmax_mhz <= 300.0)

let suite =
  [
    ("device resources", `Quick, test_device_resources);
    ("floorplan: 22 pages, 4 types", `Quick, test_floorplan_pages);
    ("floorplan: pages disjoint", `Quick, test_pages_disjoint);
    ("floorplan: no SLR crossing", `Quick, test_pages_no_slr_crossing);
    ("floorplan: tile lookup", `Quick, test_page_lookup);
    ("rrg structure", `Quick, test_rrg_structure);
    ("rrg SLR edges scarce and slow", `Quick, test_rrg_slr_edges_scarcer);
    ("place legalizes in page", `Quick, test_place_legalizes);
    ("place honors pins", `Quick, test_place_respects_pins);
    ("place rejects oversize netlists", `Quick, test_place_rejects_oversize);
    ("route legal, timing sane", `Quick, test_route_legal_and_timed);
    ("implement end to end", `Quick, test_implement_end_to_end);
    ("partial bitstream smaller", `Quick, test_bitstream_proportional);
    ("deterministic with seed", `Slow, test_determinism);
    ("superlinear runtime", `Slow, test_superlinear_runtime);
    ("netlist diff", `Quick, test_netlist_diff);
    ("place & route deterministic", `Quick, test_place_route_deterministic);
    ("delta P&R: empty diff is a no-op", `Quick, test_delta_empty_diff);
    ("delta P&R: one-cell edit stays on fast path", `Quick, test_delta_small_edit);
    ("multi-seed never times worse", `Slow, test_multi_seed_never_worse);
    ("P&R output pinned across commits", `Quick, test_pnr_output_pinned);
    ("place: a missed clock target runs the full schedule", `Quick, test_place_exits);
  ]
