open Pld_fabric
module N = Pld_netlist.Netlist
module Pq = Pld_util.Pqueue

type route = { net_id : int; edges : int list }

type result = {
  rrg : Rrg.t;
  routes : route array;
  iterations : int;
  overused_edges : int;
  total_wire : int;
  seconds : float;
  net_delay_ns : float array;
  nets_routed : int;
  history : float array;
}

type reuse = { prev : result; keep : (int * int) list }

(* Dijkstra's buffers, allocated once per routing run. Between
   searches every [dist] is infinity and every [back] is -1: a search
   records each node it reaches in [touched] and resets only those. *)
type search = {
  dist : float array;
  back : int array;
  touched : int array;
  mutable ntouched : int;
  pq : int Pq.t;
}

let search_create nodes =
  {
    dist = Array.make nodes infinity;
    back = Array.make nodes (-1);
    touched = Array.make nodes 0;
    ntouched = 0;
    pq = Pq.create ();
  }

(* Dijkstra from a source node to one sink with congestion-aware edge
   costs; returns the edge list (or [] if sink = source). *)
let shortest s rrg cost src dst =
  let dist = s.dist and back = s.back and pq = s.pq in
  let reach v d =
    if dist.(v) = infinity then begin
      s.touched.(s.ntouched) <- v;
      s.ntouched <- s.ntouched + 1
    end;
    dist.(v) <- d
  in
  reach src 0.0;
  Pq.push pq 0.0 src;
  let finished = ref false in
  while not (!finished || Pq.is_empty pq) do
    match Pq.pop pq with
    | None -> finished := true
    | Some (d, u) ->
        if u = dst then finished := true
        else if d <= dist.(u) then
          List.iter
            (fun ei ->
              let e = rrg.Rrg.edges.(ei) in
              let nd = d +. cost ei in
              if nd < dist.(e.Rrg.dst) then begin
                reach e.Rrg.dst nd;
                back.(e.Rrg.dst) <- ei;
                Pq.push pq nd e.Rrg.dst
              end)
            rrg.Rrg.out_edges.(u)
  done;
  let path =
    if dist.(dst) = infinity then None
    else begin
      let rec walk node acc =
        if node = src then acc
        else begin
          let ei = back.(node) in
          walk rrg.Rrg.edges.(ei).Rrg.src (ei :: acc)
        end
      in
      Some (walk dst [])
    end
  in
  for k = 0 to s.ntouched - 1 do
    let v = s.touched.(k) in
    dist.(v) <- infinity;
    back.(v) <- -1
  done;
  s.ntouched <- 0;
  Pq.clear pq;
  path

(* PathFinder negotiation rounds before giving up with overuse left. *)
let max_iterations = 14

let run ?(seed = 1) ?reuse ~device ~region ~placement (nl : N.t) =
  ignore seed;
  let t0 = Unix.gettimeofday () in
  (* Incremental runs reuse the previous RRG (same device/region — the
     caller's contract) instead of rebuilding it. *)
  let rrg = match reuse with Some r -> r.prev.rrg | None -> Rrg.build device region in
  let nedges = Array.length rrg.Rrg.edges in
  let usage = Array.make nedges 0 in
  (* Preserved routes keep their negotiated history costs, so the
     incremental pass starts from the congestion knowledge the previous
     run ended with. *)
  let history =
    match reuse with
    | Some r when Array.length r.prev.history = nedges -> Array.copy r.prev.history
    | _ -> Array.make nedges 0.0
  in
  let pres_fac = ref 1.0 in
  let cost ei =
    let e = rrg.Rrg.edges.(ei) in
    let over = float_of_int (max 0 (usage.(ei) + 1 - e.Rrg.capacity)) in
    e.Rrg.delay_ns *. (1.0 +. history.(ei)) *. (1.0 +. (over *. !pres_fac))
  in
  let node_of_cell cid =
    let x, y = placement.(cid) in
    Rrg.node_of_tile rrg x y
  in
  let nnets = Array.length nl.N.nets in
  let routes = Array.map (fun (n : N.net) -> { net_id = n.N.nid; edges = [] }) nl.N.nets in
  let sink_delay = Array.make nnets 0.0 in
  (* Load preserved routes and mark everything else dirty: only the
     dirty set is routed on the first pass (rip-up-only rerouting). *)
  let dirty =
    match reuse with
    | None -> Array.make nnets true
    | Some r ->
        let d = Array.make nnets true in
        List.iter
          (fun (old_ni, new_ni) ->
            let pr = r.prev.routes.(old_ni) in
            routes.(new_ni) <- { net_id = nl.N.nets.(new_ni).N.nid; edges = pr.edges };
            List.iter (fun ei -> usage.(ei) <- usage.(ei) + 1) pr.edges;
            sink_delay.(new_ni) <- r.prev.net_delay_ns.(old_ni);
            d.(new_ni) <- false)
          r.keep;
        d
  in
  let nets_routed = ref 0 in
  let search = search_create rrg.Rrg.nodes in
  let route_net ni =
    incr nets_routed;
    let n = nl.N.nets.(ni) in
    (* Rip up. *)
    List.iter (fun ei -> usage.(ei) <- usage.(ei) - 1) routes.(ni).edges;
    let src = node_of_cell n.N.driver in
    let seen = Hashtbl.create 8 in
    sink_delay.(ni) <- 0.0;
    let all_edges =
      List.concat_map
        (fun sink ->
          let dst = node_of_cell sink in
          if dst = src then []
          else
            match shortest search rrg cost src dst with
            | Some path ->
                let d = List.fold_left (fun acc ei -> acc +. rrg.Rrg.edges.(ei).Rrg.delay_ns) 0.0 path in
                if d > sink_delay.(ni) then sink_delay.(ni) <- d;
                path
            | None -> [])
        n.N.sinks
    in
    let dedup =
      List.filter
        (fun ei ->
          if Hashtbl.mem seen ei then false
          else begin
            Hashtbl.add seen ei ();
            true
          end)
        all_edges
    in
    List.iter (fun ei -> usage.(ei) <- usage.(ei) + 1) dedup;
    routes.(ni) <- { net_id = n.N.nid; edges = dedup }
  in
  (* Iterate: first pass routes the dirty set (everything on a scratch
     run), later passes reroute nets using overused edges — preserved
     routes are ripped up only if congestion reaches them. *)
  let iterations = ref 0 in
  let overused () =
    let acc = ref 0 in
    Array.iteri (fun ei u -> if u > rrg.Rrg.edges.(ei).Rrg.capacity then incr acc) usage;
    !acc
  in
  let congested_net ni = List.exists (fun ei -> usage.(ei) > rrg.Rrg.edges.(ei).Rrg.capacity) routes.(ni).edges in
  let continue = ref true in
  while !continue && !iterations < max_iterations do
    incr iterations;
    for ni = 0 to nnets - 1 do
      if (if !iterations = 1 then dirty.(ni) else congested_net ni) then route_net ni
    done;
    Array.iteri
      (fun ei u ->
        let cap = rrg.Rrg.edges.(ei).Rrg.capacity in
        if u > cap then history.(ei) <- history.(ei) +. (0.5 *. float_of_int (u - cap)))
      usage;
    pres_fac := !pres_fac *. 1.8;
    if overused () = 0 then continue := false
  done;
  let net_delay_ns = sink_delay in
  {
    rrg;
    routes;
    iterations = !iterations;
    overused_edges = overused ();
    total_wire = Array.fold_left (fun acc r -> acc + List.length r.edges) 0 routes;
    seconds = Unix.gettimeofday () -. t0;
    net_delay_ns;
    nets_routed = !nets_routed;
    history;
  }
