type node = int

type edge = { src : node; dst : node; capacity : int; delay_ns : float }

type t = {
  device : Device.t;
  region : Floorplan.rect;
  nodes : int;
  edges : edge array;
  out_edges : int list array;
}

let wires_per_boundary = 14
let slr_wires = 4
let base_delay = 0.08
let slr_delay = 0.4

let width r = r.Floorplan.x1 - r.Floorplan.x0 + 1
let height r = r.Floorplan.y1 - r.Floorplan.y0 + 1

let node_of_tile t x y =
  let r = t.region in
  if x < r.Floorplan.x0 || x > r.Floorplan.x1 || y < r.Floorplan.y0 || y > r.Floorplan.y1 then
    invalid_arg (Printf.sprintf "Rrg.node_of_tile: (%d,%d) outside region" x y);
  ((y - r.Floorplan.y0) * width r) + (x - r.Floorplan.x0)

let tile_of_node t n =
  let r = t.region in
  (r.Floorplan.x0 + (n mod width r), r.Floorplan.y0 + (n / width r))

let build device region =
  let w = width region and h = height region in
  let nodes = w * h in
  let edges = ref [] in
  let idx x y = ((y - region.Floorplan.y0) * w) + (x - region.Floorplan.x0) in
  for x = region.Floorplan.x0 to region.Floorplan.x1 do
    for y = region.Floorplan.y0 to region.Floorplan.y1 do
      let add dx dy =
        let nx = x + dx and ny = y + dy in
        if
          nx >= region.Floorplan.x0 && nx <= region.Floorplan.x1 && ny >= region.Floorplan.y0
          && ny <= region.Floorplan.y1
        then begin
          let crosses_slr =
            dy <> 0
            && Device.slr_of_row device y <> Device.slr_of_row device ny
          in
          let capacity = if crosses_slr then slr_wires else wires_per_boundary in
          let delay_ns = if crosses_slr then slr_delay else base_delay in
          edges := { src = idx x y; dst = idx nx ny; capacity; delay_ns } :: !edges
        end
      in
      add 1 0;
      add (-1) 0;
      add 0 1;
      add 0 (-1)
    done
  done;
  let edges = Array.of_list (List.rev !edges) in
  let out_edges = Array.make nodes [] in
  Array.iteri (fun i e -> out_edges.(e.src) <- i :: out_edges.(e.src)) edges;
  { device; region; nodes; edges; out_edges }
