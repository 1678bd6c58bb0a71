open Pld_fabric
module N = Pld_netlist.Netlist

type delta_stats = {
  cells_kept : int;
  cells_moved : int;
  nets_preserved : int;
  nets_rerouted : int;
  fallback : string option;
}

type result = {
  netlist : N.t;
  region : Floorplan.rect;
  placement : (int * int) array;
  place : Place.result;
  route : Route.result;
  timing : Sta.result;
  bitstream : Bitgen.t;
  place_seconds : float;
  route_seconds : float;
  sta_seconds : float;
  bitgen_seconds : float;
  seconds : float;
  delta : delta_stats option;
}

let routed_ok r = r.place.Place.overfill = 0.0 && r.route.Route.overused_edges = 0

(* STA and bitgen on a finished placement/routing, with phase timing. *)
let finish ~t0 ~netlist ~region ~place ~route ~clock_target_mhz ~delta =
  let t_sta = Unix.gettimeofday () in
  let timing = Sta.analyze ~clock_target_mhz netlist ~net_delay_ns:route.Route.net_delay_ns in
  let t_bit = Unix.gettimeofday () in
  let bitstream =
    Bitgen.generate ~region ~placement:place.Place.positions
      ~routes:(Array.to_list route.Route.routes) netlist
  in
  let t_end = Unix.gettimeofday () in
  {
    netlist;
    region;
    placement = place.Place.positions;
    place;
    route;
    timing;
    bitstream;
    place_seconds = place.Place.seconds;
    route_seconds = route.Route.seconds;
    sta_seconds = t_bit -. t_sta;
    bitgen_seconds = t_end -. t_bit;
    seconds = t_end -. t0;
    delta;
  }

let implement ?(seed = 1) ?(clock_target_mhz = 300.0) ?(pins = []) ~device ~region nl =
  let t0 = Unix.gettimeofday () in
  let place = Place.run ~seed ~pins ~device ~region nl in
  let route = Route.run ~seed ~device ~region ~placement:place.Place.positions nl in
  finish ~t0 ~netlist:nl ~region ~place ~route ~clock_target_mhz ~delta:None

(* Edits larger than this fraction of the netlist go back to scratch:
   the refinement would move most cells anyway, without the hot start's
   freedom. *)
let max_change_fraction = 0.5

let implement_delta ?(seed = 1) ?(clock_target_mhz = 300.0) ?(pins = [])
    ?previous ~device ~region nl =
  let t0 = Unix.gettimeofday () in
  let scratch reason =
    let r = implement ~seed ~clock_target_mhz ~pins ~device ~region nl in
    {
      r with
      seconds = Unix.gettimeofday () -. t0;
      delta =
        Some
          {
            cells_kept = 0;
            cells_moved = Array.length r.placement;
            nets_preserved = 0;
            nets_rerouted = r.route.Route.nets_routed;
            fallback = Some reason;
          };
    }
  in
  match previous with
  | None -> scratch "no-previous"
  | Some prev ->
      if prev.region <> region then scratch "region-changed"
      else if prev.route.Route.overused_edges > 0 then scratch "previous-congested"
      else begin
        let d = N.diff prev.netlist nl in
        if N.diff_change_fraction d > max_change_fraction then scratch "large-edit"
        else begin
          (* The hot start must not cost placement quality. Netlists
             can carry irreducible overfill (single cells larger than
             any tile, oversubscribed BRAM/DSP columns), and an edit
             can raise that floor — so the yardstick is the overfill
             {e beyond} each netlist's own floor: the refined placement
             may waste no more than the placement it reused did. On
             fully legal netlists this degenerates to the plain
             overfill = 0 check. Two tiers: frozen kept cells first,
             then — if the edit cannot be absorbed around them — a
             seeded-but-unpinned pass before surrendering to scratch. *)
          let slack =
            prev.place.Place.overfill
            -. Place.intrinsic_overfill ~device ~region prev.netlist
          in
          let floor_new = Place.intrinsic_overfill ~device ~region nl in
          let acceptable (p : Place.result) =
            p.Place.overfill <= floor_new +. slack +. 1e-6
          in
          let place =
            let frozen_pass =
              Place.refine ~seed ~pins ~device ~region ~previous:prev.placement ~diff:d nl
            in
            if acceptable frozen_pass then frozen_pass
            else
              Place.refine ~seed ~pins ~freeze:false ~device ~region
                ~previous:prev.placement ~diff:d nl
          in
          if not (acceptable place) then scratch "refine-illegal"
          else begin
            (* A kept net's route carries over iff every endpoint sits
               where it did before. *)
            let ncells = Array.length nl.N.cells in
            let old_of = Array.make ncells (-1) in
            List.iter (fun (o, n2) -> old_of.(n2) <- o) d.N.cells_kept;
            List.iter
              (fun (o, n2) -> match o with Some o -> old_of.(n2) <- o | None -> ())
              d.N.cells_changed;
            let unmoved cid =
              old_of.(cid) >= 0 && place.Place.positions.(cid) = prev.placement.(old_of.(cid))
            in
            let keep =
              List.filter
                (fun (_, new_ni) ->
                  let n = nl.N.nets.(new_ni) in
                  List.for_all unmoved (n.N.driver :: n.N.sinks))
                d.N.nets_kept
            in
            let route =
              Route.run ~seed ~reuse:{ Route.prev = prev.route; keep } ~device ~region
                ~placement:place.Place.positions nl
            in
            if route.Route.overused_edges > 0 then scratch "route-congested"
            else begin
              let moved = ref 0 and kept = ref 0 in
              for cid = 0 to ncells - 1 do
                if unmoved cid then incr kept else incr moved
              done;
              let delta =
                Some
                  {
                    cells_kept = !kept;
                    cells_moved = !moved;
                    nets_preserved = List.length keep;
                    nets_rerouted = route.Route.nets_routed;
                    fallback = None;
                  }
              in
              finish ~t0 ~netlist:nl ~region ~place ~route ~clock_target_mhz ~delta
            end
          end
        end
      end

let implement_multi ?(clock_target_mhz = 300.0) ?(pins = []) ?telemetry ~seeds ~device ~region nl =
  match seeds with
  | [] -> invalid_arg "Pnr.implement_multi: empty seed list"
  | [ seed ] -> implement ~seed ~clock_target_mhz ~pins ~device ~region nl
  | _ ->
      let module J = Pld_engine.Jobgraph in
      let module X = Pld_engine.Executor in
      let race =
        X.run ?telemetry ~workers:(List.length seeds)
          (J.make
             (List.map
                (fun s ->
                  J.node ~id:(Printf.sprintf "pnr:seed%d" s) ~kind:"pnr" (fun _ctx ->
                      (s, implement ~seed:s ~clock_target_mhz ~pins ~device ~region nl)))
                seeds))
      in
      (* Deterministic pick: legal first, then best post-STA timing,
         then lowest seed. *)
      let score (s, r) =
        ((if routed_ok r then 0 else 1), -.r.timing.Sta.fmax_mhz, r.timing.Sta.critical_path_ns, s)
      in
      let _, best =
        List.sort (fun a b -> compare (score a) (score b)) (List.map snd race.X.artifacts) |> List.hd
      in
      { best with seconds = race.X.wall_seconds }

let report r =
  let delta_line =
    match r.delta with
    | None -> ""
    | Some d -> (
        match d.fallback with
        | Some reason -> Printf.sprintf "\ndelta: fell back to scratch (%s)" reason
        | None ->
            Printf.sprintf "\ndelta: %d cells kept / %d moved, %d routes preserved / %d rerouted"
              d.cells_kept d.cells_moved d.nets_preserved d.nets_rerouted)
  in
  Printf.sprintf
    "== P&R report: %s ==\n\
     region: (%d,%d)-(%d,%d)\n\
     wirelength: %d  overfill: %.1f  route overuse: %d (after %d iterations)\n\
     critical path: %.2f ns -> Fmax %.0f MHz\n\
     bitstream: %d bytes (crc %s)\n\
     time: place %.2fs route %.2fs sta %.2fs bit %.2fs (total %.2fs)%s"
    r.netlist.N.nl_name r.region.Floorplan.x0 r.region.Floorplan.y0 r.region.Floorplan.x1
    r.region.Floorplan.y1 r.place.Place.wirelength r.place.Place.overfill
    r.route.Route.overused_edges r.route.Route.iterations r.timing.Sta.critical_path_ns
    r.timing.Sta.fmax_mhz (Bitgen.size_bytes r.bitstream) r.bitstream.Bitgen.crc
    r.place_seconds r.route_seconds r.sta_seconds r.bitgen_seconds r.seconds delta_line
