module P = Pld_core.Fabric_profile
module Json = Pld_telemetry.Json

type finding = {
  bk_op : string;
  bk_kind : string;
  bk_attributed : int;
  bk_fraction : float;
  bk_victims : (string * int) list;
}

type report = {
  bk_graph : string;
  bk_level : string;
  bk_total_stalls : int;
  bk_findings : finding list;
  bk_perf_bottleneck : string;
  bk_agrees : bool;
}

let host_in = "host-dma-in"
let host_out = "host-dma-out"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let attribute (p : P.t) =
  let op_of name = List.find_opt (fun (o : P.op_stat) -> o.P.op_name = name) p.P.pf_ops in
  (* The dominant-direction walk. [`Up] follows starvation to the slow
     producer; [`Down] follows back-pressure to the slow consumer. *)
  let step dir name =
    let candidates =
      List.filter
        (fun (c : P.chan_stat) ->
          match dir with
          | `Up -> c.P.ch_dst = Some name && c.P.ch_blocked_reads > 0
          | `Down -> c.P.ch_src = Some name && c.P.ch_blocked_writes > 0)
        p.P.pf_chans
    in
    let weight (c : P.chan_stat) =
      match dir with `Up -> c.P.ch_blocked_reads | `Down -> c.P.ch_blocked_writes
    in
    match candidates with
    | [] -> None
    | first :: rest ->
        let best = List.fold_left (fun a c -> if weight c > weight a then c else a) first rest in
        Some ((match dir with `Up -> best.P.ch_src | `Down -> best.P.ch_dst), weight best)
  in
  (* Keep walking while the next operator is itself predominantly
     stalled in the same direction — its stalls have the same root
     cause further along. *)
  let continues dir (o : P.op_stat) =
    match dir with
    | `Up -> o.P.op_blocked_read > 0 && o.P.op_blocked_read >= o.P.op_blocked_write
    | `Down -> o.P.op_blocked_write > 0 && o.P.op_blocked_write > o.P.op_blocked_read
  in
  (* ... and while the stall pressure actually propagates through it:
     the rate limiter is exactly the operator where the signature
     attenuates — heavy starvation (or back-pressure) on its output
     side, little on its input side. A handful of warm-up stalls must
     not carry the walk past it, so the next hop's strongest channel
     has to carry at least half the pressure of the hop that led
     there. *)
  let propagates dir name w =
    match step dir name with Some (_, w2) -> 2 * w2 >= w | None -> false
  in
  let rec walk dir visited name =
    match step dir name with
    | None -> (name, match op_of name with Some o -> o.P.op_kind | None -> "host")
    | Some (None, _) -> ((match dir with `Up -> host_in | `Down -> host_out), "host")
    | Some (Some next, w) -> (
        if List.mem next visited then (next, match op_of next with Some o -> o.P.op_kind | None -> "host")
        else
          match op_of next with
          | Some o when continues dir o && propagates dir next w -> walk dir (next :: visited) next
          | Some o -> (next, o.P.op_kind)
          | None -> (next, "host"))
  in
  let charges : (string, string * int ref * (string * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let total_stalls = ref 0 in
  List.iter
    (fun (o : P.op_stat) ->
      let events = o.P.op_blocked_read + o.P.op_blocked_write in
      total_stalls := !total_stalls + events;
      if events > 0 then begin
        let dir = if o.P.op_blocked_read >= o.P.op_blocked_write then `Up else `Down in
        let culprit, kind = walk dir [ o.P.op_name ] o.P.op_name in
        let _, count, victims =
          match Hashtbl.find_opt charges culprit with
          | Some c -> c
          | None ->
              let c = (kind, ref 0, ref []) in
              Hashtbl.replace charges culprit c;
              c
        in
        count := !count + events;
        victims := (o.P.op_name, events) :: !victims
      end)
    p.P.pf_ops;
  let findings =
    Hashtbl.fold
      (fun op (kind, count, victims) acc ->
        {
          bk_op = op;
          bk_kind = kind;
          bk_attributed = !count;
          bk_fraction =
            (if !total_stalls = 0 then 0.0 else float_of_int !count /. float_of_int !total_stalls);
          bk_victims = List.sort (fun (_, a) (_, b) -> compare b a) !victims;
        }
        :: acc)
      charges []
    |> List.sort (fun a b -> compare b.bk_attributed a.bk_attributed)
  in
  let agrees =
    match findings with
    | [] -> true
    | top :: _ ->
        (* The perf model's bottleneck string may carry decoration
           ("scale (softcore)", "linking-network bandwidth"); agreement
           means the attributed culprit appears in it, or the walk ended
           at a host/NoC boundary while the model blames the network. *)
        contains ~sub:top.bk_op p.P.pf_bottleneck
        || (top.bk_kind = "host" && contains ~sub:"network" p.P.pf_bottleneck)
  in
  {
    bk_graph = p.P.pf_graph;
    bk_level = p.P.pf_level;
    bk_total_stalls = !total_stalls;
    bk_findings = findings;
    bk_perf_bottleneck = p.P.pf_bottleneck;
    bk_agrees = agrees;
  }

let rate_limiter r =
  match r.bk_findings with [] -> None | top :: _ -> Some (top.bk_op, top.bk_fraction)

let render r =
  let header =
    Printf.sprintf "back-pressure attribution: %s @ %s — %d stall event(s), perf bottleneck %s%s"
      r.bk_graph r.bk_level r.bk_total_stalls r.bk_perf_bottleneck
      (if r.bk_agrees then "" else " (DISAGREES)")
  in
  let lines =
    List.concat_map
      (fun f ->
        Printf.sprintf "  %-20s %-9s %6.1f%% (%d event(s))" f.bk_op f.bk_kind
          (100.0 *. f.bk_fraction) f.bk_attributed
        :: List.map
             (fun (v, n) -> Printf.sprintf "    <- %s stalled %d time(s)" v n)
             f.bk_victims)
      r.bk_findings
  in
  header :: (if r.bk_findings = [] then [ "  no stalls observed" ] else lines)

let to_json r =
  Json.Obj
    [
      ("graph", Json.String r.bk_graph);
      ("level", Json.String r.bk_level);
      ("total_stalls", Json.Int r.bk_total_stalls);
      ("perf_bottleneck", Json.String r.bk_perf_bottleneck);
      ("agrees", Json.Bool r.bk_agrees);
      ( "findings",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("op", Json.String f.bk_op);
                   ("kind", Json.String f.bk_kind);
                   ("attributed", Json.Int f.bk_attributed);
                   ("fraction", Json.Float f.bk_fraction);
                   ( "victims",
                     Json.List
                       (List.map
                          (fun (v, n) ->
                            Json.Obj [ ("op", Json.String v); ("events", Json.Int n) ])
                          f.bk_victims) );
                 ])
             r.bk_findings) );
    ]

let profile_doc p =
  match P.to_json p with
  | Json.Obj fields -> Json.Obj (fields @ [ ("attribution", to_json (attribute p)) ])
  | other -> other
