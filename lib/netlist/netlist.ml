type res = { luts : int; ffs : int; brams : int; dsps : int }

let res_zero = { luts = 0; ffs = 0; brams = 0; dsps = 0 }

let res_add a b =
  { luts = a.luts + b.luts; ffs = a.ffs + b.ffs; brams = a.brams + b.brams; dsps = a.dsps + b.dsps }

let res_luts n = { res_zero with luts = n }

let res_le a b = a.luts <= b.luts && a.ffs <= b.ffs && a.brams <= b.brams && a.dsps <= b.dsps

let pp_res fmt r =
  Format.fprintf fmt "{luts=%d; ffs=%d; brams=%d; dsps=%d}" r.luts r.ffs r.brams r.dsps

type kind =
  | Arith
  | Mul
  | Div
  | Logic
  | Reg
  | Mem
  | Control
  | Stream_in of string
  | Stream_out of string

let kind_name = function
  | Arith -> "arith"
  | Mul -> "mul"
  | Div -> "div"
  | Logic -> "logic"
  | Reg -> "reg"
  | Mem -> "mem"
  | Control -> "control"
  | Stream_in p -> "stream_in:" ^ p
  | Stream_out p -> "stream_out:" ^ p

type cell = { cid : int; cname : string; kind : kind; res : res; delay_ns : float }
type net = { nid : int; nname : string; driver : int; sinks : int list }
type t = { nl_name : string; cells : cell array; nets : net array }

module Builder = struct
  type t = { bname : string; mutable bcells : cell list; mutable bnets : net list; mutable nc : int; mutable nn : int }

  let create bname = { bname; bcells = []; bnets = []; nc = 0; nn = 0 }

  let add_cell t ~name ~kind ~res ~delay_ns =
    let cid = t.nc in
    t.nc <- t.nc + 1;
    t.bcells <- { cid; cname = name; kind; res; delay_ns } :: t.bcells;
    cid

  let add_net t ~name ~driver ~sinks =
    let nid = t.nn in
    t.nn <- t.nn + 1;
    t.bnets <- { nid; nname = name; driver; sinks } :: t.bnets;
    nid

  let finish t =
    let cells = Array.of_list (List.rev t.bcells) in
    let nets = Array.of_list (List.rev t.bnets) in
    Array.iter
      (fun n ->
        let check id =
          if id < 0 || id >= Array.length cells then
            invalid_arg (Printf.sprintf "Netlist %s: net %s references cell %d" t.bname n.nname id)
        in
        check n.driver;
        List.iter check n.sinks;
        if n.sinks = [] then invalid_arg (Printf.sprintf "Netlist %s: net %s has no sinks" t.bname n.nname))
      nets;
    { nl_name = t.bname; cells; nets }
end

let total_res t = Array.fold_left (fun acc c -> res_add acc c.res) res_zero t.cells
let cell_count t = Array.length t.cells
let net_count t = Array.length t.nets

let ports t =
  Array.to_list t.cells
  |> List.filter_map (fun c ->
         match c.kind with
         | Stream_in p -> Some (p, `In)
         | Stream_out p -> Some (p, `Out)
         | Arith | Mul | Div | Logic | Reg | Mem | Control -> None)

let merge ~name parts =
  let b = Builder.create name in
  List.iter
    (fun (prefix, nl) ->
      let base = Hashtbl.create 16 in
      Array.iter
        (fun c ->
          let kind =
            (* Port names become instance-qualified so -O3 linking can
               find them unambiguously. *)
            match c.kind with
            | Stream_in p -> Stream_in (prefix ^ "." ^ p)
            | Stream_out p -> Stream_out (prefix ^ "." ^ p)
            | k -> k
          in
          let cid =
            Builder.add_cell b ~name:(prefix ^ "." ^ c.cname) ~kind ~res:c.res ~delay_ns:c.delay_ns
          in
          Hashtbl.replace base c.cid cid)
        nl.cells;
      Array.iter
        (fun n ->
          ignore
            (Builder.add_net b ~name:(prefix ^ "." ^ n.nname) ~driver:(Hashtbl.find base n.driver)
               ~sinks:(List.map (Hashtbl.find base) n.sinks)))
        nl.nets)
    parts;
  Builder.finish b

let find_port_cell t name dir =
  let matches c =
    match (c.kind, dir) with
    | Stream_out p, `Out -> p = name
    | Stream_in p, `In -> p = name
    | _ -> false
  in
  match Array.to_list t.cells |> List.find_opt matches with
  | Some c -> c.cid
  | None -> invalid_arg (Printf.sprintf "Netlist %s: no %s port cell %s" t.nl_name
                           (match dir with `In -> "input" | `Out -> "output") name)

let add_fifo_links t links =
  let b = Builder.create t.nl_name in
  Array.iter (fun c -> ignore (Builder.add_cell b ~name:c.cname ~kind:c.kind ~res:c.res ~delay_ns:c.delay_ns)) t.cells;
  Array.iter (fun n -> ignore (Builder.add_net b ~name:n.nname ~driver:n.driver ~sinks:n.sinks)) t.nets;
  List.iter
    (fun (src, dst, fifo_name, depth) ->
      let src_cell = find_port_cell t src `Out in
      let dst_cell = find_port_cell t dst `In in
      (* 32-bit FIFO: shallow ones in LUTRAM, deep ones in BRAM18. *)
      let res =
        if depth <= 64 then { res_zero with luts = 48 + depth; ffs = 70 }
        else { res_zero with luts = 60; ffs = 70; brams = (((depth * 32) + 18431) / 18432) }
      in
      let fifo = Builder.add_cell b ~name:fifo_name ~kind:Mem ~res ~delay_ns:1.2 in
      ignore (Builder.add_net b ~name:(fifo_name ^ ".push") ~driver:src_cell ~sinks:[ fifo ]);
      ignore (Builder.add_net b ~name:(fifo_name ^ ".pop") ~driver:fifo ~sinks:[ dst_cell ]))
    links;
  Builder.finish b

(* ---------- structural diff (incremental P&R) ---------- *)

type diff = {
  cells_kept : (int * int) list;
  cells_changed : (int option * int) list;
  cells_removed : int list;
  nets_kept : (int * int) list;
  nets_changed : int list;
  nets_removed : int list;
}

let cell_eq (a : cell) (b : cell) = a.kind = b.kind && a.res = b.res && a.delay_ns = b.delay_ns

let diff (old_nl : t) (new_nl : t) =
  let old_by_name = Hashtbl.create (Array.length old_nl.cells) in
  Array.iter (fun c -> Hashtbl.replace old_by_name c.cname c) old_nl.cells;
  let new_names = Hashtbl.create (Array.length new_nl.cells) in
  Array.iter (fun c -> Hashtbl.replace new_names c.cname ()) new_nl.cells;
  let kept = ref [] and changed = ref [] in
  Array.iter
    (fun c ->
      match Hashtbl.find_opt old_by_name c.cname with
      | Some o when cell_eq o c -> kept := (o.cid, c.cid) :: !kept
      | Some o -> changed := (Some o.cid, c.cid) :: !changed
      | None -> changed := (None, c.cid) :: !changed)
    new_nl.cells;
  let cells_removed =
    Array.to_list old_nl.cells
    |> List.filter (fun c -> not (Hashtbl.mem new_names c.cname))
    |> List.map (fun c -> c.cid)
  in
  (* Nets match by name, with connectivity compared through endpoint
     cell names (ids shift when cells are inserted or removed). *)
  let old_nets = Hashtbl.create (Array.length old_nl.nets) in
  Array.iter (fun n -> Hashtbl.replace old_nets n.nname n) old_nl.nets;
  let new_net_names = Hashtbl.create (Array.length new_nl.nets) in
  Array.iter (fun n -> Hashtbl.replace new_net_names n.nname ()) new_nl.nets;
  let old_name cid = old_nl.cells.(cid).cname in
  let new_name cid = new_nl.cells.(cid).cname in
  let nets_kept = ref [] and nets_changed = ref [] in
  Array.iter
    (fun n ->
      match Hashtbl.find_opt old_nets n.nname with
      | Some o
        when old_name o.driver = new_name n.driver
             && List.length o.sinks = List.length n.sinks
             && List.for_all2 (fun a b -> old_name a = new_name b) o.sinks n.sinks ->
          nets_kept := (o.nid, n.nid) :: !nets_kept
      | Some _ | None -> nets_changed := n.nid :: !nets_changed)
    new_nl.nets;
  let nets_removed =
    Array.to_list old_nl.nets
    |> List.filter (fun n -> not (Hashtbl.mem new_net_names n.nname))
    |> List.map (fun n -> n.nid)
  in
  {
    cells_kept = List.rev !kept;
    cells_changed = List.rev !changed;
    cells_removed;
    nets_kept = List.rev !nets_kept;
    nets_changed = List.rev !nets_changed;
    nets_removed;
  }

let diff_is_empty d =
  d.cells_changed = [] && d.cells_removed = [] && d.nets_changed = [] && d.nets_removed = []

let diff_change_fraction d =
  let kept = List.length d.cells_kept and changed = List.length d.cells_changed in
  let total = kept + changed in
  if total = 0 then 1.0
  else float_of_int (changed + List.length d.cells_removed) /. float_of_int total
