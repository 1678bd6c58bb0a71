module Telemetry = Pld_telemetry.Telemetry
module Table = Pld_util.Table
module Makespan = Pld_engine.Makespan

type job = {
  id : string;
  kind : string;
  deps : string list;
  wall_s : float;
  model_s : float;
  phases : (string * float) list;
}

type report = {
  run : string;
  workers : int;
  jobs : job list;
  graph_wall_s : float;
  measured_s : float;
  measured_path : string list;
  modeled_chain_s : float;
  modeled_chain : string list;
  lpt_s : float;
  lpt_machine : string list;
  by_kind : (string * int * float * float) list;
  phase_totals : (string * float) list;
}

let attr name (s : Telemetry.span) = List.assoc_opt name s.attrs
let dur_s (s : Telemetry.span) = Option.value ~default:0.0 s.dur_us /. 1e6

let is_graph (s : Telemetry.span) =
  s.cat = "engine" && s.name = "graph" && s.dur_us <> None && attr "run" s <> None

let runs spans =
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun s ->
      if is_graph s then
        match attr "run" s with
        | Some r when not (Hashtbl.mem seen r) ->
            Hashtbl.replace seen r ();
            Some r
        | _ -> None
      else None)
    spans

let split_deps = function
  | None | Some "" -> []
  | Some s -> String.split_on_char ',' s

(* Longest path through the dependency DAG under a per-job weight.
   Memoized DFS; a dep missing from the table (outside this run)
   contributes nothing. *)
let longest_path weight jobs =
  let by_id = Hashtbl.create 16 in
  List.iter (fun j -> Hashtbl.replace by_id j.id j) jobs;
  let memo = Hashtbl.create 16 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some r -> r
    | None -> (
        match Hashtbl.find_opt by_id id with
        | None -> (0.0, [])
        | Some j ->
            (* [>=] so a zero-cost prefix (cache hits, hls jobs under
               the modeled weight) still appears in the path. *)
            let pre =
              List.fold_left
                (fun (bl, bp) d ->
                  let l, p = go d in
                  if l >= bl then (l, p) else (bl, bp))
                (0.0, []) j.deps
            in
            let r = (fst pre +. weight j, j.id :: snd pre) in
            Hashtbl.replace memo id r;
            r)
  in
  let best =
    List.fold_left
      (fun (bl, bp) j ->
        let l, p = go j.id in
        if l > bl then (l, p) else (bl, bp))
      (0.0, []) jobs
  in
  (fst best, List.rev (snd best))

let analyze ?(workers = 22) spans =
  match List.rev (List.filter is_graph spans) with
  | [] -> None
  | graph :: _ ->
      let run = Option.get (attr "run" graph) in
      (* Job spans of this run: stamped with its id and carrying a
         dependency list. Retried jobs span once per attempt — attempts
         merge into one job, summing wall. *)
      let order = ref [] in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (s : Telemetry.span) ->
          if
            s.cat = "engine" && s.clock = Telemetry.Wall && s.dur_us <> None
            && attr "run" s = Some run
            && attr "deps" s <> None
          then
            match Hashtbl.find_opt tbl s.name with
            | None ->
                order := s.name :: !order;
                Hashtbl.replace tbl s.name
                  {
                    id = s.name;
                    kind = Option.value ~default:"" (attr "kind" s);
                    deps = split_deps (attr "deps" s);
                    wall_s = dur_s s;
                    model_s = 0.0;
                    phases = [];
                  }
            | Some j -> Hashtbl.replace tbl s.name { j with wall_s = j.wall_s +. dur_s s })
        spans;
      (* Modeled flow phases, attached to their job. *)
      List.iter
        (fun (s : Telemetry.span) ->
          if s.cat = "flow" && s.clock = Telemetry.Modeled && s.dur_us <> None
             && attr "run" s = Some run
          then
            match Option.bind (attr "job" s) (Hashtbl.find_opt tbl) with
            | None -> ()
            | Some j ->
                let sec = dur_s s in
                let phases =
                  match List.assoc_opt s.name j.phases with
                  | Some prev -> (s.name, prev +. sec) :: List.remove_assoc s.name j.phases
                  | None -> j.phases @ [ (s.name, sec) ]
                in
                Hashtbl.replace tbl j.id { j with model_s = j.model_s +. sec; phases })
        spans;
      let jobs = List.rev_map (Hashtbl.find tbl) !order in
      let measured_s, measured_path = longest_path (fun j -> j.wall_s) jobs in
      let modeled_chain_s, modeled_chain = longest_path (fun j -> j.model_s) jobs in
      let lpt_s, lpt_machine =
        Makespan.lpt_critical ~workers (List.map (fun j -> (j.id, j.model_s)) jobs)
      in
      let by_kind =
        List.fold_left
          (fun acc j ->
            match List.assoc_opt j.kind acc with
            | Some (n, w, m) ->
                (j.kind, (n + 1, w +. j.wall_s, m +. j.model_s)) :: List.remove_assoc j.kind acc
            | None -> acc @ [ (j.kind, (1, j.wall_s, j.model_s)) ])
          [] jobs
        |> List.map (fun (k, (n, w, m)) -> (k, n, w, m))
      in
      let phase_totals =
        List.fold_left
          (fun acc j ->
            List.fold_left
              (fun acc (p, sec) ->
                match List.assoc_opt p acc with
                | Some prev -> (p, prev +. sec) :: List.remove_assoc p acc
                | None -> acc @ [ (p, sec) ])
              acc j.phases)
          [] jobs
      in
      Some
        {
          run;
          workers;
          jobs;
          graph_wall_s = dur_s graph;
          measured_s;
          measured_path;
          modeled_chain_s;
          modeled_chain;
          lpt_s;
          lpt_machine;
          by_kind;
          phase_totals;
        }

let render r =
  let buf = Buffer.create 512 in
  let path = function [] -> "(empty)" | p -> String.concat " -> " p in
  Buffer.add_string buf
    (Printf.sprintf "run %s: %d jobs, graph wall %.4fs\n" r.run (List.length r.jobs)
       r.graph_wall_s);
  Buffer.add_string buf
    (Printf.sprintf "measured critical path  %10.4fs  %s\n" r.measured_s (path r.measured_path));
  Buffer.add_string buf
    (Printf.sprintf "modeled longest chain   %10.4fs  %s\n" r.modeled_chain_s
       (path r.modeled_chain));
  Buffer.add_string buf
    (Printf.sprintf "modeled LPT makespan    %10.4fs  on %d workers (critical machine: %s)\n"
       r.lpt_s r.workers
       (match r.lpt_machine with [] -> "(idle)" | m -> String.concat ", " m));
  if r.by_kind <> [] then begin
    Buffer.add_string buf "\nmodeled vs measured by job kind:\n";
    Buffer.add_string buf
      (Table.render
         ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
         ~header:[ "kind"; "jobs"; "wall(s)"; "model(s)"; "model/wall" ]
         (List.map
            (fun (k, n, w, m) ->
              [
                k;
                string_of_int n;
                Printf.sprintf "%.4f" w;
                Printf.sprintf "%.2f" m;
                (if w > 0.0 then Printf.sprintf "%.0fx" (m /. w) else "-");
              ])
            r.by_kind));
    Buffer.add_char buf '\n'
  end;
  if r.phase_totals <> [] then begin
    let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 r.phase_totals in
    Buffer.add_string buf "\nmodeled seconds by phase:\n";
    Buffer.add_string buf
      (Table.render
         ~aligns:[ Table.Left; Table.Right; Table.Right ]
         ~header:[ "phase"; "model(s)"; "share" ]
         (List.map
            (fun (p, s) ->
              [
                p;
                Printf.sprintf "%.2f" s;
                (if total > 0.0 then Printf.sprintf "%.1f%%" (100.0 *. s /. total) else "-");
              ])
            r.phase_totals));
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf
