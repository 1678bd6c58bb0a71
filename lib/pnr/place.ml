open Pld_fabric
module N = Pld_netlist.Netlist
module Rng = Pld_util.Rng

type result = {
  positions : (int * int) array;
  wirelength : int;
  overfill : float;
  moves_evaluated : int;
  seconds : float;
}

let fits_region device region nl =
  N.res_le (N.total_res nl) (Floorplan.rect_capacity device region)

(* Overfill weights: hard blocks (BRAM/DSP) are scarce, so violations
   there cost far more than LUT spill. *)
let w_lut = 1.0
let w_ff = 0.4
let w_bram = 60.0
let w_dsp = 60.0

let res_over (res : N.res) (cap : N.res) =
  (w_lut *. float_of_int (max 0 (res.N.luts - cap.N.luts)))
  +. (w_ff *. float_of_int (max 0 (res.N.ffs - cap.N.ffs)))
  +. (w_bram *. float_of_int (max 0 (res.N.brams - cap.N.brams)))
  +. (w_dsp *. float_of_int (max 0 (res.N.dsps - cap.N.dsps)))

(* The overfill a placement of [nl] can never go below: each cell's
   best-case weighted overflow on the friendliest tile kind the region
   offers, summed. Generated netlists routinely carry single cells
   larger than any one tile, so "legal" placements of such netlists
   are judged by their overfill *beyond* this floor. *)
let intrinsic_overfill ~device ~region (nl : N.t) =
  let kinds = ref [] in
  for x = region.Floorplan.x0 to region.Floorplan.x1 do
    for y = region.Floorplan.y0 to region.Floorplan.y1 do
      let k = Device.kind_at device x y in
      if not (List.mem k !kinds) then kinds := k :: !kinds
    done
  done;
  let caps = List.map Device.tile_capacity !kinds in
  Array.fold_left
    (fun acc (c : N.cell) ->
      acc
      +. List.fold_left (fun best cap -> Float.min best (res_over c.res cap)) infinity caps)
    0.0 nl.N.cells

(* A scratch anneal stops after a temperature once the page is done
   (legal, and the pre-route timing estimate, with every net's delay
   scaled by [timing_margin], meets the clock target) or once fewer
   than [frozen_accept_frac] of that temperature's moves were
   accepted. *)
let timing_margin = 1.5
let frozen_accept_frac = 0.01

(* Pre-route net delays: the Manhattan hops from a net's driver to its
   farthest sink, each at the router's delay for that hop (an SLR
   crossing costs [Rrg.slr_delay]), times [timing_margin]. *)
let estimated_delays ~device ~tx ~ty ~pos (nl : N.t) =
  Array.map
    (fun (n : N.net) ->
      let xd = tx.(pos.(n.N.driver)) and yd = ty.(pos.(n.N.driver)) in
      let worst =
        List.fold_left
          (fun acc s ->
            let x = tx.(pos.(s)) and y = ty.(pos.(s)) in
            let hops = abs (x - xd) + abs (y - yd) in
            let slr = abs (Device.slr_of_row device y - Device.slr_of_row device yd) in
            Float.max acc
              ((float_of_int (hops - slr) *. Rrg.base_delay) +. (float_of_int slr *. Rrg.slr_delay)))
          0.0 n.N.sinks
      in
      timing_margin *. worst)
    nl.N.nets

(* A [Scratch] anneal runs the full schedule from a hot start, with
   the two exits above. [Refine (start, frozen)] seeds the anneal from
   a previous placement: cells with a start tile begin there, frozen
   ones never move, and the schedule drops to a short low-temperature
   pass sized to the movable subset — the delta-P&R placement reuse.

   The move loop allocates nothing and recomputes only what a move
   changed: each net's HPWL and each tile's weighted overfill are
   cached, and both caches are updated only when a move is accepted,
   so between moves they always equal a fresh computation. Results at
   a fixed seed are a contract across commits: the RNG draw order, the
   float expression order of [delta] and the short-circuited
   [Rng.float] draw must not change. *)
type mode = Scratch of { clock_target_mhz : float } | Refine of (int * int) option array * bool array

let run_core ~seed ~pins ~mode ~device ~region (nl : N.t) =
  let t_start = Unix.gettimeofday () in
  if not (fits_region device region nl) then
    invalid_arg
      (Printf.sprintf "Place.run: %s does not fit region (%s needed)" nl.N.nl_name
         (Format.asprintf "%a" N.pp_res (N.total_res nl)));
  let rng = Rng.create seed in
  let { Floorplan.x0 = rx0; y0 = ry0; x1 = rx1; y1 = ry1 } = region in
  let w = rx1 - rx0 + 1 in
  let h = ry1 - ry0 + 1 in
  let ntiles = w * h in
  let tile_of x y = ((y - ry0) * w) + (x - rx0) in
  let tx = Array.init ntiles (fun i -> rx0 + (i mod w)) in
  let ty = Array.init ntiles (fun i -> ry0 + (i / w)) in
  let cap = Array.init ntiles (fun i -> Device.tile_capacity (Device.kind_at device tx.(i) ty.(i))) in
  let ncells = Array.length nl.N.cells in
  let pos = Array.make ncells 0 in
  (* Occupancy per tile, by resource. *)
  let occ_l = Array.make ntiles 0 and occ_f = Array.make ntiles 0 in
  let occ_b = Array.make ntiles 0 and occ_d = Array.make ntiles 0 in
  let over_by occ c = if occ > c then occ - c else 0 in
  let[@inline] tile_over i =
    let c = cap.(i) in
    (w_lut *. float_of_int (over_by occ_l.(i) c.N.luts))
    +. (w_ff *. float_of_int (over_by occ_f.(i) c.N.ffs))
    +. (w_bram *. float_of_int (over_by occ_b.(i) c.N.brams))
    +. (w_dsp *. float_of_int (over_by occ_d.(i) c.N.dsps))
  in
  let add_cell i cell_res sign =
    occ_l.(i) <- occ_l.(i) + (sign * cell_res.N.luts);
    occ_f.(i) <- occ_f.(i) + (sign * cell_res.N.ffs);
    occ_b.(i) <- occ_b.(i) + (sign * cell_res.N.brams);
    occ_d.(i) <- occ_d.(i) + (sign * cell_res.N.dsps)
  in
  (* Fixed pins: stream-port cells pinned to given tiles. *)
  let fixed = Array.make ncells false in
  let pin_tile name =
    match List.assoc_opt name pins with
    | Some (x, y) ->
        if x < rx0 || x > rx1 || y < ry0 || y > ry1 then
          invalid_arg (Printf.sprintf "Place.run: pin %s at (%d,%d) outside region" name x y);
        Some (tile_of x y)
    | None -> None
  in
  (* Tiles that can host a hard-block cell, per (wants BRAM, wants
     DSP) class. The initial scatter indexes these with a seeded draw,
     so their descending tile order is part of the fixed-seed
     contract. *)
  let hard_tiles want_bram want_dsp =
    let l = ref [] in
    for i = 0 to ntiles - 1 do
      if (want_bram && cap.(i).N.brams > 0) || (want_dsp && cap.(i).N.dsps > 0) then l := i :: !l
    done;
    Array.of_list !l
  in
  let bram_tiles = lazy (hard_tiles true false) and dsp_tiles = lazy (hard_tiles false true) in
  let bram_dsp_tiles = lazy (hard_tiles true true) in
  (* Initial placement: pins fixed, everything else scattered near good
     tiles for its resource class. *)
  Array.iteri
    (fun cid (c : N.cell) ->
      let tile =
        let pinned =
          match c.kind with
          | N.Stream_in p | N.Stream_out p -> pin_tile p
          | _ -> None
        in
        let seeded =
          match mode with
          | Refine (start, frozen) -> (
              match start.(cid) with
              | Some (x, y) when x >= rx0 && x <= rx1 && y >= ry0 && y <= ry1 ->
                  let t = tile_of x y in
                  if frozen.(cid) then begin
                    fixed.(cid) <- true;
                    Some t
                  end
                  else if
                    (* A changed cell may have switched resource class
                       (a grown FIFO goes LUT -> BRAM): its old tile is
                       only a useful start if it can host the new
                       demand — the range-limited anneal cannot ferry
                       it to a distant hard-block column. *)
                    (c.res.N.brams = 0 || cap.(t).N.brams > 0)
                    && (c.res.N.dsps = 0 || cap.(t).N.dsps > 0)
                  then Some t
                  else None
              | _ -> None)
          | Scratch _ -> None
        in
        match pinned with
        | Some t ->
            fixed.(cid) <- true;
            t
        | None -> (
            match seeded with
            | Some t -> t
            | None -> (
                (* Bias hard blocks toward tiles that can host them. *)
                let candidates =
                  match (c.res.N.brams > 0, c.res.N.dsps > 0) with
                  | true, false -> Lazy.force bram_tiles
                  | false, true -> Lazy.force dsp_tiles
                  | true, true -> Lazy.force bram_dsp_tiles
                  | false, false -> [||]
                in
                match Array.length candidates with
                | 0 -> Rng.int rng ntiles
                | n -> candidates.(Rng.int rng n)))
      in
      pos.(cid) <- tile;
      add_cell tile c.res 1)
    nl.N.cells;
  (* Net bounding boxes. A cell listed twice on a net lists the net
     twice in [cell_nets], and a move counts it twice. *)
  let nets = Array.map (fun (n : N.net) -> Array.of_list (n.driver :: n.sinks)) nl.N.nets in
  let cell_nets =
    let acc = Array.make ncells [] in
    Array.iteri (fun ni members -> Array.iter (fun c -> acc.(c) <- ni :: acc.(c)) members) nets;
    Array.map Array.of_list acc
  in
  let hpwl ni =
    let members = nets.(ni) in
    let x0 = ref max_int and x1 = ref min_int and y0 = ref max_int and y1 = ref min_int in
    for k = 0 to Array.length members - 1 do
      let t = pos.(members.(k)) in
      let x = tx.(t) and y = ty.(t) in
      if x < !x0 then x0 := x;
      if x > !x1 then x1 := x;
      if y < !y0 then y0 := y;
      if y > !y1 then y1 := y
    done;
    !x1 - !x0 + (!y1 - !y0)
  in
  let total_wl () =
    let acc = ref 0 in
    Array.iteri (fun ni _ -> acc := !acc + hpwl ni) nets;
    !acc
  in
  let total_over () =
    let acc = ref 0.0 in
    for i = 0 to ntiles - 1 do
      acc := !acc +. tile_over i
    done;
    !acc
  in
  (* The move loop's caches, and scratch for a move's new net HPWLs. *)
  let net_wl = Array.init (Array.length nets) hpwl in
  let tover = Array.init ntiles tile_over in
  let wl_new = Array.make (Array.fold_left (fun m a -> max m (Array.length a)) 0 cell_nets) 0 in
  let cong_weight = ref 1.0 in
  let moves = ref 0 and accepted = ref 0 in
  let movable =
    Array.of_list (List.filter (fun c -> not fixed.(c)) (List.init ncells Fun.id))
  in
  let nmov = Array.length movable in
  (* Annealing schedule: a full sweep from a hot start, or — when
     seeded from a previous placement — a short low-temperature pass
     sized to the movable subset. *)
  let wl0 = float_of_int (Array.fold_left ( + ) 0 net_wl) in
  let t0_temp, cool, max_temps, range0, moves_per_temp =
    match mode with
    | Scratch _ ->
        ( max 1.0 (wl0 /. float_of_int (max 1 ncells)) *. 20.0,
          0.88,
          90,
          max w h,
          max 32 (int_of_float (8.0 *. (float_of_int ncells ** 1.33))) )
    | Refine _ ->
        cong_weight := 8.0;
        ( max 0.5 (wl0 /. float_of_int (max 1 ncells) *. 1.5),
          0.80,
          30,
          max 2 (max w h / 4),
          max 32 (int_of_float (8.0 *. (float_of_int (max 1 nmov) ** 1.33))) )
  in
  let temp = ref t0_temp in
  let range = ref range0 in
  let temps = ref 0 in
  let clamp lo hi v = if v < lo then lo else if v > hi then hi else v in
  let attempt_move radius =
    incr moves;
    let cid = movable.(Rng.int rng nmov) in
    let cur = pos.(cid) in
    (* Range-limited target tile. *)
    let nx = clamp rx0 rx1 (tx.(cur) + Rng.int_in rng (-radius) radius) in
    let ny = clamp ry0 ry1 (ty.(cur) + Rng.int_in rng (-radius) radius) in
    let tgt = tile_of nx ny in
    if tgt <> cur then begin
      let res = nl.N.cells.(cid).res in
      (* Delta of overfill on the two affected tiles. *)
      let before = tover.(cur) +. tover.(tgt) in
      add_cell cur res (-1);
      add_cell tgt res 1;
      let over_cur = tile_over cur and over_tgt = tile_over tgt in
      let after = over_cur +. over_tgt in
      (* Delta of wirelength on affected nets. *)
      let nets_touched = cell_nets.(cid) in
      pos.(cid) <- tgt;
      let wl_before = ref 0 and wl_after = ref 0 in
      for k = 0 to Array.length nets_touched - 1 do
        let ni = nets_touched.(k) in
        let l = hpwl ni in
        wl_new.(k) <- l;
        wl_before := !wl_before + net_wl.(ni);
        wl_after := !wl_after + l
      done;
      let delta =
        float_of_int (!wl_after - !wl_before) +. (!cong_weight *. (after -. before))
      in
      let accept = delta < 0.0 || Rng.float rng 1.0 < exp (-.delta /. !temp) in
      if accept then begin
        incr accepted;
        tover.(cur) <- over_cur;
        tover.(tgt) <- over_tgt;
        for k = 0 to Array.length nets_touched - 1 do
          net_wl.(nets_touched.(k)) <- wl_new.(k)
        done
      end
      else begin
        (* Revert. *)
        add_cell tgt res (-1);
        add_cell cur res 1;
        pos.(cid) <- cur
      end
    end
  in
  let frozen_out () =
    float_of_int !accepted < frozen_accept_frac *. float_of_int moves_per_temp
  in
  let page_done clock_target_mhz =
    Array.for_all (fun o -> o = 0.0) tover
    &&
    let net_delay_ns = estimated_delays ~device ~tx ~ty ~pos nl in
    (Sta.analyze ~clock_target_mhz nl ~net_delay_ns).Sta.fmax_mhz >= clock_target_mhz
  in
  let stop = ref false in
  if nmov > 0 then begin
    while (not !stop) && !temp > 0.01 && !temps < max_temps do
      accepted := 0;
      for _ = 1 to moves_per_temp do
        attempt_move !range
      done;
      temp := !temp *. cool;
      cong_weight := Float.min 4096.0 (!cong_weight *. 1.25);
      range := max 1 (!range * 9 / 10);
      incr temps;
      stop :=
        match mode with
        | Scratch { clock_target_mhz } -> frozen_out () || page_done clock_target_mhz
        | Refine _ -> false
    done;
    (* Greedy zero-temperature cleanup. *)
    temp := 0.0001;
    for _ = 1 to moves_per_temp do
      attempt_move 2
    done
  end;
  (* Deterministic legalization: evict cells from overfilled tiles to
     the nearest tile with residual capacity, wirelength-blind. *)
  let residual_fits i (r : N.res) =
    let c = cap.(i) in
    occ_l.(i) + r.N.luts <= c.N.luts
    && occ_f.(i) + r.N.ffs <= c.N.ffs
    && occ_b.(i) + r.N.brams <= c.N.brams
    && occ_d.(i) + r.N.dsps <= c.N.dsps
  in
  let cells_at = Array.make ntiles [] in
  Array.iteri (fun cid t -> cells_at.(t) <- cid :: cells_at.(t)) pos;
  let passes = ref 0 in
  while total_over () > 0.0 && !passes < 6 do
    incr passes;
    for t = 0 to ntiles - 1 do
      let rec fix () =
        if tile_over t > 0.0 then begin
          (* Move the largest movable cell off this tile. *)
          let movable_here =
            List.filter (fun c -> not fixed.(c)) cells_at.(t)
            |> List.sort (fun a b ->
                   compare (nl.N.cells.(b).res.N.luts + nl.N.cells.(b).res.N.ffs)
                     (nl.N.cells.(a).res.N.luts + nl.N.cells.(a).res.N.ffs))
          in
          match movable_here with
          | [] -> ()
          | cid :: _ ->
              let res = nl.N.cells.(cid).res in
              add_cell t res (-1);
              let best = ref (-1) and best_d = ref max_int in
              for u = 0 to ntiles - 1 do
                if u <> t && residual_fits u res then begin
                  let d = abs (tx.(u) - tx.(t)) + abs (ty.(u) - ty.(t)) in
                  if d < !best_d then begin
                    best_d := d;
                    best := u
                  end
                end
              done;
              if !best >= 0 then begin
                add_cell !best res 1;
                pos.(cid) <- !best;
                cells_at.(t) <- List.filter (( <> ) cid) cells_at.(t);
                cells_at.(!best) <- cid :: cells_at.(!best);
                fix ()
              end
              else add_cell t res 1 (* nowhere to go; leave the overfill *)
        end
      in
      fix ()
    done
  done;
  {
    positions = Array.map (fun t -> (tx.(t), ty.(t))) pos;
    wirelength = total_wl ();
    overfill = total_over ();
    moves_evaluated = !moves;
    seconds = Unix.gettimeofday () -. t_start;
  }

let run ?(seed = 1) ?(pins = []) ~clock_target_mhz ~device ~region nl =
  run_core ~seed ~pins ~mode:(Scratch { clock_target_mhz }) ~device ~region nl

let refine ?(seed = 1) ?(pins = []) ?(freeze = true) ~device ~region ~previous
    ~diff (nl : N.t) =
  let ncells = Array.length nl.N.cells in
  let start = Array.make ncells None in
  let frozen = Array.make ncells false in
  (* [freeze = false] is the second refinement tier: every kept cell
     still starts on its previous tile, but none is pinned — used when
     the frozen pass could not legalize around the edit. *)
  List.iter
    (fun (old_cid, new_cid) ->
      start.(new_cid) <- Some previous.(old_cid);
      frozen.(new_cid) <- freeze)
    diff.N.cells_kept;
  (* Changed cells seed from their old tile when they have one but stay
     movable; added cells scatter as usual. *)
  List.iter
    (fun (old_cid, new_cid) ->
      match old_cid with
      | Some o -> start.(new_cid) <- Some previous.(o)
      | None -> ())
    diff.N.cells_changed;
  (* Cells on a rewired net are affected: release them so the
     refinement can absorb local disruption. *)
  List.iter
    (fun nid ->
      let n = nl.N.nets.(nid) in
      List.iter (fun c -> frozen.(c) <- false) (n.N.driver :: n.N.sinks))
    diff.N.nets_changed;
  run_core ~seed ~pins ~mode:(Refine (start, frozen)) ~device ~region nl
