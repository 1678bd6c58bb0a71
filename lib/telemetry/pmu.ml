(* Windowed time-series sampler over a modeled clock. Each series owns
   a ring of [depth] window accumulators; slot [wi mod depth] holds
   window [wi] (cycles [wi*width .. wi*width+width-1]). Advancing past
   a slot whose resident window is older simply resets it in place —
   no copying, O(1) per sample, O(depth) memory per series. *)

type win = {
  mutable wn_index : int;  (* -1 = slot empty *)
  mutable wn_sum : float;
  mutable wn_count : int;
  mutable wn_peak : float;
}

type series = {
  s_name : string;
  s_unit : string;
  s_width : int;
  s_ring : win array;
  mutable s_total : float;
  mutable s_count : int;
  mutable s_dropped : int;
  mutable s_last_cycle : int;
  mutable s_head : int;  (* highest window index seen; -1 until first sample *)
  mutable s_peak : float;
}

type t = {
  p_width : int;
  p_depth : int;
  p_tbl : (string, series) Hashtbl.t;
  mutable p_order : string list;  (* reversed insertion order *)
}

let create ?(window_cycles = 1024) ?(depth = 64) () =
  if window_cycles <= 0 then invalid_arg "Pmu.create: window_cycles must be positive";
  if depth <= 0 then invalid_arg "Pmu.create: depth must be positive";
  { p_width = window_cycles; p_depth = depth; p_tbl = Hashtbl.create 32; p_order = [] }

let window_cycles t = t.p_width
let depth t = t.p_depth

let fresh_win () = { wn_index = -1; wn_sum = 0.0; wn_count = 0; wn_peak = 0.0 }

let series t ?(unit_ = "events") name =
  match Hashtbl.find_opt t.p_tbl name with
  | Some s -> s
  | None ->
      let s =
        {
          s_name = name;
          s_unit = unit_;
          s_width = t.p_width;
          s_ring = Array.init t.p_depth (fun _ -> fresh_win ());
          s_total = 0.0;
          s_count = 0;
          s_dropped = 0;
          s_last_cycle = 0;
          s_head = -1;
          s_peak = 0.0;
        }
      in
      Hashtbl.add t.p_tbl name s;
      t.p_order <- name :: t.p_order;
      s

let add s ~cycle v =
  let cycle = if cycle < 0 then 0 else cycle in
  let wi = cycle / s.s_width in
  let d = Array.length s.s_ring in
  if s.s_head >= 0 && wi <= s.s_head - d then s.s_dropped <- s.s_dropped + 1
  else begin
    s.s_total <- s.s_total +. v;
    s.s_count <- s.s_count + 1;
    if cycle > s.s_last_cycle then s.s_last_cycle <- cycle;
    if v > s.s_peak then s.s_peak <- v;
    if wi > s.s_head then s.s_head <- wi;
    let w = s.s_ring.(wi mod d) in
    if w.wn_index <> wi then begin
      w.wn_index <- wi;
      w.wn_sum <- 0.0;
      w.wn_count <- 0;
      w.wn_peak <- 0.0
    end;
    w.wn_sum <- w.wn_sum +. v;
    w.wn_count <- w.wn_count + 1;
    if v > w.wn_peak then w.wn_peak <- v
  end

let series_names t = List.rev t.p_order

type stat = {
  st_name : string;
  st_unit : string;
  st_total : float;
  st_count : int;
  st_dropped : int;
  st_last_cycle : int;
  st_rate : float;
  st_window_rate : float;
  st_peak_window : float;
  st_mean : float;
  st_peak : float;
}

type window = { w_index : int; w_sum : float; w_count : int; w_peak : float }

(* Slots whose resident window is still inside [head-depth+1 .. head],
   oldest first. Empty slots (index -1) and evicted residues never
   qualify because head - depth + 1 >= 0 is implied by wi >= 0. *)
let live_windows s =
  if s.s_head < 0 then []
  else begin
    let floor = s.s_head - Array.length s.s_ring + 1 in
    Array.to_list s.s_ring
    |> List.filter_map (fun w ->
           if w.wn_index >= floor && w.wn_index >= 0 then
             Some { w_index = w.wn_index; w_sum = w.wn_sum; w_count = w.wn_count; w_peak = w.wn_peak }
           else None)
    |> List.sort (fun a b -> compare a.w_index b.w_index)
  end

let stat_of s =
  let wins = live_windows s in
  let wsum = List.fold_left (fun acc w -> acc +. w.w_sum) 0.0 wins in
  let span_cycles = float_of_int (List.length wins * s.s_width) in
  {
    st_name = s.s_name;
    st_unit = s.s_unit;
    st_total = s.s_total;
    st_count = s.s_count;
    st_dropped = s.s_dropped;
    st_last_cycle = s.s_last_cycle;
    st_rate = (if s.s_count = 0 then 0.0 else s.s_total /. float_of_int (s.s_last_cycle + 1));
    st_window_rate = (if span_cycles = 0.0 then 0.0 else wsum /. span_cycles);
    st_peak_window = List.fold_left (fun acc w -> Float.max acc w.w_sum) 0.0 wins;
    st_mean = (if s.s_count = 0 then 0.0 else s.s_total /. float_of_int s.s_count);
    st_peak = s.s_peak;
  }

let stat t name = Option.map stat_of (Hashtbl.find_opt t.p_tbl name)
let stats t = List.map (fun n -> stat_of (Hashtbl.find t.p_tbl n)) (series_names t)

let windows t name =
  match Hashtbl.find_opt t.p_tbl name with None -> [] | Some s -> live_windows s

(* Persistence. Window indices are explicit in the document, so the
   ring reconstructs exactly — including gaps from idle windows. *)

let to_json t =
  let series_json s =
    Json.Obj
      [
        ("name", Json.String s.s_name);
        ("unit", Json.String s.s_unit);
        ("total", Json.Float s.s_total);
        ("count", Json.Int s.s_count);
        ("dropped", Json.Int s.s_dropped);
        ("last_cycle", Json.Int s.s_last_cycle);
        ("peak", Json.Float s.s_peak);
        ("head", Json.Int s.s_head);
        ( "windows",
          Json.List
            (List.map
               (fun w ->
                 Json.Obj
                   [
                     ("i", Json.Int w.w_index);
                     ("sum", Json.Float w.w_sum);
                     ("count", Json.Int w.w_count);
                     ("peak", Json.Float w.w_peak);
                   ])
               (live_windows s)) );
      ]
  in
  Json.Obj
    [
      ("window_cycles", Json.Int t.p_width);
      ("depth", Json.Int t.p_depth);
      ( "series",
        Json.List (List.map (fun n -> series_json (Hashtbl.find t.p_tbl n)) (series_names t)) );
    ]

open Json.Decode

let num_field obj name =
  match Json.member name obj with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "missing numeric field %S" name)

let window_of_json j =
  let* i = int_field j "i" in
  let* sum = num_field j "sum" in
  let* count = int_field j "count" in
  let* peak = num_field j "peak" in
  Ok { w_index = i; w_sum = sum; w_count = count; w_peak = peak }

let series_of_json t j =
  let* name = str_field j "name" in
  let* unit_ = str_field j "unit" in
  let* total = num_field j "total" in
  let* count = int_field j "count" in
  let* dropped = int_field j "dropped" in
  let* last_cycle = int_field j "last_cycle" in
  let* peak = num_field j "peak" in
  let* head = int_field j "head" in
  let* wins =
    match Json.member "windows" j with
    | Some (Json.List ws) -> map_result window_of_json ws
    | _ -> Error "missing windows list"
  in
  let s = series t ~unit_ name in
  s.s_total <- total;
  s.s_count <- count;
  s.s_dropped <- dropped;
  s.s_last_cycle <- last_cycle;
  s.s_peak <- peak;
  s.s_head <- head;
  List.iter
    (fun w ->
      let slot = s.s_ring.(w.w_index mod Array.length s.s_ring) in
      slot.wn_index <- w.w_index;
      slot.wn_sum <- w.w_sum;
      slot.wn_count <- w.w_count;
      slot.wn_peak <- w.w_peak)
    wins;
  Ok ()

let of_json j =
  Result.map_error (fun e -> "pmu: " ^ e)
  @@
  let* width = int_field j "window_cycles" in
  let* d = int_field j "depth" in
  if width <= 0 || d <= 0 then Error "invalid window_cycles/depth"
  else
    let t = create ~window_cycles:width ~depth:d () in
    let* () =
      match Json.member "series" j with
      | Some (Json.List ss) ->
          let* _ = map_result (series_of_json t) ss in
          Ok ()
      | _ -> Error "missing series list"
    in
    Ok t

let render t =
  let rows =
    List.map
      (fun st ->
        ( st.st_name,
          Printf.sprintf "%10.4f/cyc" st.st_rate,
          Printf.sprintf "peak %10.1f" st.st_peak_window,
          Printf.sprintf "mean %8.2f %s" st.st_mean st.st_unit ))
      (stats t)
  in
  let name_w = List.fold_left (fun acc (n, _, _, _) -> max acc (String.length n)) 0 rows in
  List.map
    (fun (n, rate, peak, mean) -> Printf.sprintf "%-*s %s  %s  %s" name_w n rate peak mean)
    rows
