open Pld_ir
module Pmu = Pld_telemetry.Pmu
module Json = Pld_telemetry.Json
module Net = Pld_kpn.Network
module Fp = Pld_fabric.Floorplan

type op_stat = {
  op_name : string;
  op_kind : string;
  op_page : int option;
  op_firings : int;
  op_blocked_read : int;
  op_blocked_write : int;
}

type chan_stat = {
  ch_name : string;
  ch_src : string option;
  ch_dst : string option;
  ch_tokens : int;
  ch_peak : int;
  ch_capacity : int;
  ch_blocked_reads : int;
  ch_blocked_writes : int;
}

type t = {
  pf_graph : string;
  pf_level : string;
  pf_frame_cycles : int;
  pf_bottleneck : string;
  pf_trace : string option;
  pf_tenant : string option;
  pf_ops : op_stat list;
  pf_chans : chan_stat list;
  pf_links : (int * int) list;
  pf_softcores : (string * int) list;
  pf_pmu : Pmu.t;
}

(* Link series are named [noc.link.<id>.flits]; the total of each is
   the flit count the replay (or cosim) put on that link. *)
let links_of_pmu pmu =
  List.filter_map
    (fun (st : Pmu.stat) ->
      match String.split_on_char '.' st.Pmu.st_name with
      | [ "noc"; "link"; id; "flits" ] ->
          Option.map (fun id -> (id, int_of_float st.Pmu.st_total)) (int_of_string_opt id)
      | _ -> None)
    (Pmu.stats pmu)
  |> List.sort compare

let of_run ?trace ?tenant ~pmu (app : Build.app) (r : Runner.result) =
  let g = app.Build.graph in
  let chan_stat name =
    List.find_opt (fun (s : Net.channel_stats) -> s.Net.chan = name) r.Runner.channel_stats
  in
  let chans =
    List.map
      (fun (c : Graph.channel) ->
        let tokens, peak, br, bw =
          match chan_stat c.chan_name with
          | Some s -> (s.Net.tokens, s.Net.peak_occupancy, s.Net.blocked_reads, s.Net.blocked_writes)
          | None -> (0, 0, 0, 0)
        in
        {
          ch_name = c.chan_name;
          ch_src = Graph.producer g c.chan_name;
          ch_dst = Graph.consumer g c.chan_name;
          ch_tokens = tokens;
          ch_peak = peak;
          ch_capacity = c.depth;
          ch_blocked_reads = br;
          ch_blocked_writes = bw;
        })
      g.channels
  in
  let ops =
    List.map
      (fun (i : Graph.instance) ->
        let name = i.inst_name in
        let kind =
          match List.assoc_opt name app.Build.operators with
          | Some (Build.Hw_page _) -> "hw"
          | Some (Build.Soft_page _) -> "softcore"
          | None -> "mono"
        in
        let firings =
          match Pmu.stat pmu ("kpn.proc." ^ name ^ ".firings") with
          | Some st -> st.Pmu.st_count
          | None -> 0
        in
        (* An operator's read stalls happen on the channels it consumes,
           its write stalls on the channels it produces. *)
        let br =
          List.fold_left
            (fun acc c -> if c.ch_dst = Some name then acc + c.ch_blocked_reads else acc)
            0 chans
        in
        let bw =
          List.fold_left
            (fun acc c -> if c.ch_src = Some name then acc + c.ch_blocked_writes else acc)
            0 chans
        in
        {
          op_name = name;
          op_kind = kind;
          op_page = List.assoc_opt name app.Build.assignment;
          op_firings = firings;
          op_blocked_read = br;
          op_blocked_write = bw;
        })
      g.instances
  in
  {
    pf_graph = g.Graph.graph_name;
    pf_level = Build.level_name app.Build.level;
    pf_frame_cycles = r.Runner.perf.Runner.frame_cycles;
    pf_bottleneck = r.Runner.perf.Runner.bottleneck;
    pf_trace = trace;
    pf_tenant = tenant;
    pf_ops = ops;
    pf_chans = chans;
    pf_links = links_of_pmu pmu;
    pf_softcores = r.Runner.softcore_cycles;
    pf_pmu = pmu;
  }

(* JSON codec. Same explicitness discipline as the other exporters:
   every field present, [null] for absent options, validated on the
   way back in. *)

let opt_str = function None -> Json.Null | Some s -> Json.String s

let op_json o =
  Json.Obj
    [
      ("name", Json.String o.op_name);
      ("kind", Json.String o.op_kind);
      ("page", match o.op_page with None -> Json.Null | Some p -> Json.Int p);
      ("firings", Json.Int o.op_firings);
      ("blocked_read", Json.Int o.op_blocked_read);
      ("blocked_write", Json.Int o.op_blocked_write);
    ]

let chan_json c =
  Json.Obj
    [
      ("name", Json.String c.ch_name);
      ("src", opt_str c.ch_src);
      ("dst", opt_str c.ch_dst);
      ("tokens", Json.Int c.ch_tokens);
      ("peak", Json.Int c.ch_peak);
      ("capacity", Json.Int c.ch_capacity);
      ("blocked_reads", Json.Int c.ch_blocked_reads);
      ("blocked_writes", Json.Int c.ch_blocked_writes);
    ]

let to_json p =
  Json.Obj
    [
      ("graph", Json.String p.pf_graph);
      ("level", Json.String p.pf_level);
      ("frame_cycles", Json.Int p.pf_frame_cycles);
      ("bottleneck", Json.String p.pf_bottleneck);
      ("trace", opt_str p.pf_trace);
      ("tenant", opt_str p.pf_tenant);
      ("ops", Json.List (List.map op_json p.pf_ops));
      ("channels", Json.List (List.map chan_json p.pf_chans));
      ( "links",
        Json.List (List.map (fun (id, flits) -> Json.List [ Json.Int id; Json.Int flits ]) p.pf_links)
      );
      ( "softcores",
        Json.List
          (List.map
             (fun (n, c) -> Json.Obj [ ("instance", Json.String n); ("cycles", Json.Int c) ])
             p.pf_softcores) );
      ("pmu", Pmu.to_json p.pf_pmu);
    ]

open Json.Decode

let opt_str_field j name =
  match Json.member name j with
  | Some (Json.String s) -> Ok (Some s)
  | Some Json.Null | None -> Ok None
  | _ -> Error (Printf.sprintf "field %S is not a string" name)

let list_field j name =
  match Json.member name j with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing list field %S" name)

let op_of_json j =
  let* name = str_field j "name" in
  let* kind = str_field j "kind" in
  let* page =
    match Json.member "page" j with
    | Some (Json.Int p) -> Ok (Some p)
    | Some Json.Null | None -> Ok None
    | _ -> Error "op page is not an integer"
  in
  let* firings = int_field j "firings" in
  let* br = int_field j "blocked_read" in
  let* bw = int_field j "blocked_write" in
  Ok
    {
      op_name = name;
      op_kind = kind;
      op_page = page;
      op_firings = firings;
      op_blocked_read = br;
      op_blocked_write = bw;
    }

let chan_of_json j =
  let* name = str_field j "name" in
  let* src = opt_str_field j "src" in
  let* dst = opt_str_field j "dst" in
  let* tokens = int_field j "tokens" in
  let* peak = int_field j "peak" in
  let* capacity = int_field j "capacity" in
  let* br = int_field j "blocked_reads" in
  let* bw = int_field j "blocked_writes" in
  Ok
    {
      ch_name = name;
      ch_src = src;
      ch_dst = dst;
      ch_tokens = tokens;
      ch_peak = peak;
      ch_capacity = capacity;
      ch_blocked_reads = br;
      ch_blocked_writes = bw;
    }

let link_of_json = function
  | Json.List [ Json.Int id; Json.Int flits ] -> Ok (id, flits)
  | _ -> Error "link entry is not [id, flits]"

let softcore_of_json j =
  let* n = str_field j "instance" in
  let* c = int_field j "cycles" in
  Ok (n, c)

let of_json j =
  Result.map_error (fun e -> "profile: " ^ e)
  @@
  let* graph = str_field j "graph" in
  let* level = str_field j "level" in
  let* frame_cycles = int_field j "frame_cycles" in
  let* bottleneck = str_field j "bottleneck" in
  let* trace = opt_str_field j "trace" in
  let* tenant = opt_str_field j "tenant" in
  let* ops = Result.bind (list_field j "ops") (map_result op_of_json) in
  let* chans = Result.bind (list_field j "channels") (map_result chan_of_json) in
  let* links = Result.bind (list_field j "links") (map_result link_of_json) in
  let* softcores = Result.bind (list_field j "softcores") (map_result softcore_of_json) in
  let* pmu =
    match Json.member "pmu" j with
    | Some pj -> Pmu.of_json pj
    | None -> Error "missing pmu document"
  in
  Ok
    {
      pf_graph = graph;
      pf_level = level;
      pf_frame_cycles = frame_cycles;
      pf_bottleneck = bottleneck;
      pf_trace = trace;
      pf_tenant = tenant;
      pf_ops = ops;
      pf_chans = chans;
      pf_links = links;
      pf_softcores = softcores;
      pf_pmu = pmu;
    }

(* Heatmap rendering: the floorplan grid shaded by firing activity,
   one legend row per occupied page, link utilization bars below. *)

let shade_chars = [| '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

let shade ~max_v v =
  if v <= 0 || max_v <= 0 then '.'
  else
    let idx =
      int_of_float (float_of_int (Array.length shade_chars - 1) *. float_of_int v /. float_of_int max_v)
    in
    shade_chars.(min (Array.length shade_chars - 1) idx)

let bar ~width ~max_v v =
  let n = if max_v <= 0 then 0 else v * width / max_v in
  String.make (min width n) '#' ^ String.make (width - min width n) ' '

let stall_pct o =
  let total = o.op_firings + o.op_blocked_read + o.op_blocked_write in
  if total = 0 then 0.0
  else 100.0 *. float_of_int (o.op_blocked_read + o.op_blocked_write) /. float_of_int total

let render_heatmap p (fp : Fp.t) =
  let by_page =
    List.filter_map (fun o -> Option.map (fun pg -> (pg, o)) o.op_page) p.pf_ops
  in
  let max_firings = List.fold_left (fun acc (_, o) -> max acc o.op_firings) 0 by_page in
  let d = fp.Fp.device in
  let module Device = Pld_fabric.Device in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "fabric heatmap: %s @ %s — %d frame cycles, bottleneck %s\n" p.pf_graph
       p.pf_level p.pf_frame_cycles p.pf_bottleneck);
  for y = d.Device.rows - 1 downto 0 do
    for x = 0 to d.Device.cols - 1 do
      let c =
        match Fp.page_of_tile fp x y with
        | Some pg -> begin
            match List.assoc_opt pg.Fp.page_id by_page with
            | Some o -> shade ~max_v:max_firings o.op_firings
            | None -> ' '
          end
        | None -> begin
            match Device.kind_at d x y with
            | Device.Shell -> 'S'
            | Device.Noc -> 'N'
            | Device.Hbm -> 'H'
            | Device.Clb | Device.Bram | Device.Dsp -> ' '
          end
      in
      Buffer.add_char buf c
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "pages:\n";
  List.iter
    (fun (pg, o) ->
      Buffer.add_string buf
        (Printf.sprintf "  page %2d %c %-16s %8d firings  %5.1f%% stalled (%d rd / %d wr)\n" pg
           (shade ~max_v:max_firings o.op_firings)
           o.op_name o.op_firings (stall_pct o) o.op_blocked_read o.op_blocked_write))
    (List.sort compare by_page);
  let max_flits = List.fold_left (fun acc (_, f) -> max acc f) 0 p.pf_links in
  if p.pf_links <> [] then begin
    Buffer.add_string buf "links:\n";
    List.iter
      (fun (id, flits) ->
        Buffer.add_string buf
          (Printf.sprintf "  link %3d [%s] %d flits\n" id (bar ~width:20 ~max_v:max_flits flits)
             flits))
      p.pf_links
  end;
  Buffer.contents buf
