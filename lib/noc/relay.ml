module Fp = Pld_fabric.Floorplan

type result = {
  cycles : int;
  relay_stations : int;
  wire_luts : int;
  relink_seconds : float;
}

(* A relay station every [relay_span] tiles keeps the dedicated wires
   at speed; each is a 32-bit register+valid/ready stage. *)
let relay_span = 4
let relay_luts = 40
let wire_luts_per_tile = 6
let switch_page_compile_seconds = 0.45

exception Unknown_leaf of string

let leaf_tile (fp : Fp.t) leaf =
  if leaf = 0 then (27, 2) (* the DMA/interface corner *)
  else
    match List.find_opt (fun (p : Fp.page) -> p.page_id = leaf) fp.Fp.pages with
    | Some p -> p.Fp.noc_leaf
    | None ->
        raise
          (Unknown_leaf
             (Printf.sprintf
                "Relay.leaf_tile: leaf %d is not a floorplan page (valid: 0 for DMA, page ids %s)"
                leaf
                (String.concat ", "
                   (List.map (fun (p : Fp.page) -> string_of_int p.page_id) fp.Fp.pages))))

let replay fp links =
  let active = List.filter Traffic.active links in
  let per_link (l : Traffic.link) =
    let sx, sy = leaf_tile fp l.Traffic.src_leaf in
    let dx, dy = leaf_tile fp l.Traffic.dst_leaf in
    let dist = abs (sx - dx) + abs (sy - dy) in
    let stations = dist / relay_span in
    (* Fully pipelined: latency = stations, then 1 token/cycle. *)
    (l.Traffic.tokens + stations, stations, dist * wire_luts_per_tile)
  in
  let cycles, stations, wires =
    List.fold_left
      (fun (c, s, w) l ->
        let lc, ls, lw = per_link l in
        (max c lc, s + ls, w + lw))
      (0, 0, 0) active
  in
  {
    cycles;
    relay_stations = stations;
    wire_luts = wires + (stations * relay_luts);
    relink_seconds = switch_page_compile_seconds;
  }

let describe r =
  Printf.sprintf
    "dedicated wires: %d cycles/frame, %d relay stations, %d LUTs of links, re-link = %.2f s switch-page compile"
    r.cycles r.relay_stations r.wire_luts r.relink_seconds
