module Telemetry = Pld_telemetry.Telemetry
module Table = Pld_util.Table

type node = { span : Telemetry.span; children : node list }

let dur (s : Telemetry.span) = Option.value ~default:0.0 s.dur_us
let end_us (s : Telemetry.span) = s.start_us +. dur s

(* Containment with a slack of one clock tick: a child closed by the
   same gettimeofday call as its parent has an equal endpoint. *)
let eps = 1e-3

let contains parent child =
  child.Telemetry.start_us >= parent.Telemetry.start_us -. eps
  && end_us child <= end_us parent +. eps

type mut = { sp : Telemetry.span; mutable kids : mut list }

(* [kids] accumulates by prepending, so a single rev_map restores
   start order. *)
let rec freeze m = { span = m.sp; children = List.rev_map freeze m.kids }

(* One timeline: sort by (start asc, dur desc) so a parent precedes
   the children it contains, then sweep with a stack of open spans. *)
let forest_of_timeline spans =
  let sorted =
    List.sort
      (fun a b ->
        match compare a.Telemetry.start_us b.Telemetry.start_us with
        | 0 -> compare (dur b) (dur a)
        | c -> c)
      spans
  in
  let roots = ref [] and stack = ref [] in
  List.iter
    (fun s ->
      let rec unwind () =
        match !stack with
        | top :: rest when not (contains top.sp s) ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      let m = { sp = s; kids = [] } in
      (match !stack with top :: _ -> top.kids <- m :: top.kids | [] -> roots := m :: !roots);
      stack := m :: !stack)
    sorted;
  List.rev_map freeze !roots

let forest spans =
  let keyed = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : Telemetry.span) ->
      if s.dur_us <> None then begin
        let k = (s.cat, s.clock, s.track) in
        if not (Hashtbl.mem keyed k) then order := k :: !order;
        Hashtbl.replace keyed k (s :: Option.value ~default:[] (Hashtbl.find_opt keyed k))
      end)
    spans;
  List.concat_map (fun k -> forest_of_timeline (List.rev (Hashtbl.find keyed k))) (List.rev !order)

type row = {
  name : string;
  cat : string;
  clock : Telemetry.clock;
  count : int;
  total_s : float;
  self_s : float;
  max_s : float;
}

let flat spans =
  let acc = Hashtbl.create 32 in
  let rec walk n =
    let d = dur n.span /. 1e6 in
    let child_d = List.fold_left (fun a c -> a +. (dur c.span /. 1e6)) 0.0 n.children in
    let self = Float.max 0.0 (d -. child_d) in
    let k = (n.span.Telemetry.name, n.span.Telemetry.cat, n.span.Telemetry.clock) in
    (match Hashtbl.find_opt acc k with
    | None ->
        Hashtbl.replace acc k
          {
            name = n.span.Telemetry.name;
            cat = n.span.Telemetry.cat;
            clock = n.span.Telemetry.clock;
            count = 1;
            total_s = d;
            self_s = self;
            max_s = d;
          }
    | Some r ->
        Hashtbl.replace acc k
          {
            r with
            count = r.count + 1;
            total_s = r.total_s +. d;
            self_s = r.self_s +. self;
            max_s = Float.max r.max_s d;
          });
    List.iter walk n.children
  in
  List.iter walk (forest spans);
  (* A total order, so rows with tied self time list the same way
     whatever order the forest walk met them in. *)
  Hashtbl.fold (fun _ r rows -> r :: rows) acc []
  |> List.sort (fun a b ->
         match Float.compare b.self_s a.self_s with
         | 0 -> compare (a.name, a.cat, a.clock) (b.name, b.cat, b.clock)
         | c -> c)

let clock_name = function Telemetry.Wall -> "wall" | Telemetry.Modeled -> "modeled"

let render_hot ?(top = 15) rows =
  (* percentages are of the row's own clock: wall self-seconds and
     modeled self-seconds are different quantities *)
  let self_total clock =
    List.fold_left (fun a r -> if r.clock = clock then a +. r.self_s else a) 0.0 rows
  in
  let shown = List.filteri (fun i _ -> i < top) rows in
  let body =
    List.map
      (fun r ->
        let tot = self_total r.clock in
        [
          r.name;
          r.cat;
          clock_name r.clock;
          string_of_int r.count;
          Printf.sprintf "%.4f" r.total_s;
          Printf.sprintf "%.4f" r.self_s;
          Printf.sprintf "%.4f" r.max_s;
          (if tot > 0.0 then Printf.sprintf "%.1f%%" (100.0 *. r.self_s /. tot) else "-");
        ])
      shown
  in
  Table.render
    ~aligns:
      [
        Table.Left;
        Table.Left;
        Table.Left;
        Table.Right;
        Table.Right;
        Table.Right;
        Table.Right;
        Table.Right;
      ]
    ~header:[ "span"; "cat"; "clock"; "n"; "total(s)"; "self(s)"; "max(s)"; "self%" ]
    body

(* Merge same-named siblings so a page compiled 20 times is one line
   with count 20, not 20 lines. *)
type agg = { a_name : string; a_count : int; a_total : float; a_self : float; a_kids : agg list }

let rec aggregate nodes =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun n ->
      let d = dur n.span /. 1e6 in
      let child_d = List.fold_left (fun a c -> a +. (dur c.span /. 1e6)) 0.0 n.children in
      let self = Float.max 0.0 (d -. child_d) in
      let key = n.span.Telemetry.name in
      match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.replace tbl key (1, d, self, n.children)
      | Some (c, t, s, kids) -> Hashtbl.replace tbl key (c + 1, t +. d, s +. self, kids @ n.children))
    nodes;
  List.rev !order
  |> List.map (fun key ->
         let c, t, s, kids = Hashtbl.find tbl key in
         { a_name = key; a_count = c; a_total = t; a_self = s; a_kids = aggregate kids })
  |> List.sort (fun a b -> compare b.a_total a.a_total)

let render_tree ?(min_s = 0.0005) spans =
  let buf = Buffer.create 256 in
  let rec emit depth a =
    if a.a_total >= min_s then begin
      Buffer.add_string buf
        (Printf.sprintf "%8.4f %8.4f %5d  %s%s\n" a.a_total a.a_self a.a_count
           (String.make (2 * depth) ' ')
           a.a_name);
      List.iter (emit (depth + 1)) a.a_kids
    end
  in
  Buffer.add_string buf "total(s)  self(s)     n  span\n";
  List.iter (emit 0) (aggregate (forest spans));
  Buffer.contents buf
