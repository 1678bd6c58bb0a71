exception Cycle of int list

let adjacency n edges =
  let adj = Array.make n [] in
  let indeg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Topo: vertex out of range";
      adj.(u) <- v :: adj.(u);
      indeg.(v) <- indeg.(v) + 1)
    edges;
  Array.iteri (fun i l -> adj.(i) <- List.rev l) adj;
  (adj, indeg)

(* Kahn's algorithm with a min-heap replaced by ordered scanning: n is
   small everywhere we use this, so a simple sorted worklist keeps the
   ordering stable and the code obvious. *)
let sort ~n ~edges =
  let adj, indeg = adjacency n edges in
  let module Q = Set.Make (Int) in
  let ready = ref Q.empty in
  for v = n - 1 downto 0 do
    if indeg.(v) = 0 then ready := Q.add v !ready
  done;
  let rec loop acc =
    match Q.min_elt_opt !ready with
    | None -> List.rev acc
    | Some v ->
        ready := Q.remove v !ready;
        List.iter
          (fun w ->
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then ready := Q.add w !ready)
          adj.(v);
        loop (v :: acc)
  in
  let order = loop [] in
  if List.length order = n then order
  else begin
    (* Find a witness cycle among the unresolved vertices. *)
    let remaining = Array.make n false in
    for v = 0 to n - 1 do
      remaining.(v) <- indeg.(v) > 0
    done;
    let start =
      let rec find v = if v >= n then 0 else if remaining.(v) then v else find (v + 1) in
      find 0
    in
    let visited = Array.make n (-1) in
    let rec walk v step path =
      if visited.(v) >= 0 then begin
        let cycle = List.filteri (fun i _ -> i >= visited.(v)) (List.rev path) in
        raise (Cycle cycle)
      end;
      visited.(v) <- step;
      let next = List.find_opt (fun w -> remaining.(w)) adj.(v) in
      match next with
      | Some w -> walk w (step + 1) (v :: path)
      | None -> raise (Cycle [ v ])
    in
    walk start 0 []
  end

let longest_path ~n ~edges =
  let plain = List.map (fun (u, v, _) -> (u, v)) edges in
  let order = sort ~n ~edges:plain in
  let adj = Array.make n [] in
  List.iter (fun (u, v, w) -> adj.(u) <- (v, w) :: adj.(u)) edges;
  let dist = Array.make n 0.0 in
  List.iter
    (fun u -> List.iter (fun (v, w) -> if dist.(u) +. w > dist.(v) then dist.(v) <- dist.(u) +. w) adj.(u))
    order;
  dist
