type clock = Wall | Modeled

type span = {
  name : string;
  cat : string;
  track : int;
  clock : clock;
  start_us : float;
  dur_us : float option;
  attrs : (string * string) list;
}

type counter = { c_lock : Mutex.t; mutable c_value : int }
type gauge = { g_lock : Mutex.t; mutable g_value : float; mutable g_set : bool }

type histogram = {
  h_lock : Mutex.t;
  h_edges : float array;  (** ascending upper bounds *)
  h_counts : int array;  (** length = edges + 1; last bucket is +inf *)
  mutable h_sum : float;
  mutable h_n : int;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_samples : float list;  (** reversed, capped *)
  mutable h_sample_n : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  lock : Mutex.t;
  mutable epoch : float;
  mutable events : span list;  (** reversed *)
  mutable event_count : int;
  mutable dropped : int;
  metrics : (string, metric) Hashtbl.t;
  mutable metric_order : string list;  (** reversed insertion order *)
  track_names : (string * clock * int, string) Hashtbl.t;
  mutable next_track : int;
}

(* Storage caps: a runaway cosim can emit millions of firing spans; past
   the cap they are counted, not kept, so memory stays bounded and the
   export stays loadable. *)
let max_events = 200_000
let max_samples = 10_000

let create () =
  {
    lock = Mutex.create ();
    epoch = Unix.gettimeofday ();
    events = [];
    event_count = 0;
    dropped = 0;
    metrics = Hashtbl.create 64;
    metric_order = [];
    track_names = Hashtbl.create 16;
    (* Allocated tracks start high so they never collide with worker or
       domain ids used as tracks directly. *)
    next_track = 1000;
  }

let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let reset t =
  locked t (fun () ->
      t.epoch <- Unix.gettimeofday ();
      t.events <- [];
      t.event_count <- 0;
      t.dropped <- 0;
      Hashtbl.reset t.metrics;
      t.metric_order <- [];
      Hashtbl.reset t.track_names;
      t.next_track <- 1000)

let now_us t = (Unix.gettimeofday () -. t.epoch) *. 1e6

let domain_track () = (Domain.self () :> int)

let add_event t s =
  locked t (fun () ->
      if t.event_count >= max_events then t.dropped <- t.dropped + 1
      else begin
        t.events <- s :: t.events;
        t.event_count <- t.event_count + 1
      end)

let span t ?(cat = "misc") ?track ?(clock = Wall) ?(attrs = []) ~name ~start_us ~dur_us () =
  let track = match track with Some k -> k | None -> domain_track () in
  add_event t { name; cat; track; clock; start_us; dur_us = Some dur_us; attrs }

let instant t ?(cat = "misc") ?track ?(attrs = []) name =
  let track = match track with Some k -> k | None -> domain_track () in
  add_event t { name; cat; track; clock = Wall; start_us = now_us t; dur_us = None; attrs }

let with_span t ?(cat = "misc") ?track ?(attrs = []) name f =
  let track = match track with Some k -> k | None -> domain_track () in
  let t0 = now_us t in
  let close extra =
    add_event t
      { name; cat; track; clock = Wall; start_us = t0; dur_us = Some (now_us t -. t0); attrs = attrs @ extra }
  in
  match f () with
  | v ->
      close [];
      v
  | exception e ->
      close [ ("error", Printexc.to_string e) ];
      raise e

let alloc_track t ?(clock = Wall) ~cat name =
  locked t (fun () ->
      let k = t.next_track in
      t.next_track <- k + 1;
      Hashtbl.replace t.track_names (cat, clock, k) name;
      k)

type modeled_track = { mt_cat : string; mt_track : int; mt_cursor : float ref }

let modeled_track t ~cat ~name =
  { mt_cat = cat; mt_track = alloc_track t ~clock:Modeled ~cat name; mt_cursor = ref 0.0 }

let modeled_span t mt ?attrs name seconds =
  let start_us = !(mt.mt_cursor) in
  let dur_us = seconds *. 1e6 in
  mt.mt_cursor := start_us +. dur_us;
  span t ~cat:mt.mt_cat ~track:mt.mt_track ~clock:Modeled ?attrs ~name ~start_us ~dur_us ()

let spans t = locked t (fun () -> List.rev t.events)
let dropped_spans t = locked t (fun () -> t.dropped)

(* ---------- metrics registry ---------- *)

let register (type v) t name (select : metric -> v option) (make : unit -> metric * v) : v =
  locked t (fun () ->
      match Hashtbl.find_opt t.metrics name with
      | Some m -> (
          match select m with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "Telemetry: metric %s exists with another kind" name))
      | None ->
          let m, v = make () in
          Hashtbl.replace t.metrics name m;
          t.metric_order <- name :: t.metric_order;
          v)

let counter t name =
  register t name
    (function Counter c -> Some c | _ -> None)
    (fun () ->
      let c = { c_lock = t.lock; c_value = 0 } in
      (Counter c, c))

let incr ?(by = 1) c =
  Mutex.lock c.c_lock;
  c.c_value <- c.c_value + by;
  Mutex.unlock c.c_lock

let gauge t name =
  register t name
    (function Gauge g -> Some g | _ -> None)
    (fun () ->
      let g = { g_lock = t.lock; g_value = 0.0; g_set = false } in
      (Gauge g, g))

let set_gauge g v =
  Mutex.lock g.g_lock;
  g.g_value <- v;
  g.g_set <- true;
  Mutex.unlock g.g_lock

let max_gauge g v =
  Mutex.lock g.g_lock;
  if (not g.g_set) || v > g.g_value then g.g_value <- v;
  g.g_set <- true;
  Mutex.unlock g.g_lock

let default_buckets =
  [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0 ]

let histogram t ?(buckets = default_buckets) name =
  if buckets = [] then invalid_arg "Telemetry.histogram: no bucket edges";
  let edges = Array.of_list buckets in
  Array.iteri
    (fun i e -> if i > 0 && e <= edges.(i - 1) then invalid_arg "Telemetry.histogram: edges must ascend")
    edges;
  register t name
    (function Histogram h -> Some h | _ -> None)
    (fun () ->
      let h =
        {
          h_lock = t.lock;
          h_edges = edges;
          h_counts = Array.make (Array.length edges + 1) 0;
          h_sum = 0.0;
          h_n = 0;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
          h_samples = [];
          h_sample_n = 0;
        }
      in
      (Histogram h, h))

let observe h x =
  Mutex.lock h.h_lock;
  let n = Array.length h.h_edges in
  let rec slot i = if i >= n then n else if x <= h.h_edges.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. x;
  h.h_n <- h.h_n + 1;
  if x < h.h_min then h.h_min <- x;
  if x > h.h_max then h.h_max <- x;
  if h.h_sample_n < max_samples then begin
    h.h_samples <- x :: h.h_samples;
    h.h_sample_n <- h.h_sample_n + 1
  end;
  Mutex.unlock h.h_lock

let find_metric t name = locked t (fun () -> Hashtbl.find_opt t.metrics name)

let counter_value t name =
  match find_metric t name with Some (Counter c) -> c.c_value | _ -> 0

let gauge_value t name =
  match find_metric t name with
  | Some (Gauge g) when g.g_set -> Some g.g_value
  | _ -> None

let bucket_counts t name =
  match find_metric t name with
  | Some (Histogram h) ->
      locked t (fun () ->
          List.init
            (Array.length h.h_counts)
            (fun i ->
              let edge = if i < Array.length h.h_edges then h.h_edges.(i) else Float.infinity in
              (edge, h.h_counts.(i))))
  | _ -> []

let samples t name =
  match find_metric t name with
  | Some (Histogram h) -> locked t (fun () -> List.rev h.h_samples)
  | _ -> []

(* ---------- export ---------- *)

(* Snapshot under the lock, format outside it. *)
type snapshot = {
  s_events : span list;  (** chronological *)
  s_dropped : int;
  s_metrics : (string * metric) list;  (** insertion order *)
  s_track_names : ((string * clock * int) * string) list;
}

let snapshot t =
  locked t (fun () ->
      {
        s_events = List.rev t.events;
        s_dropped = t.dropped;
        s_metrics =
          List.rev_map (fun n -> (n, Hashtbl.find t.metrics n)) t.metric_order |> List.rev;
        s_track_names = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.track_names [];
      })

(* The one definition of the Chrome process label: a (category, clock)
   pair becomes "cat" or "cat (modeled)", and the decoder splits it
   back. *)
let modeled_suffix = " (modeled)"
let process_label cat = function Wall -> cat | Modeled -> cat ^ modeled_suffix

let split_process_label label =
  if String.ends_with ~suffix:modeled_suffix label then
    (String.sub label 0 (String.length label - String.length modeled_suffix), Modeled)
  else (label, Wall)

let to_chrome_json t =
  let s = snapshot t in
  (* pid per (cat, clock), in first-appearance order. *)
  let pids = Hashtbl.create 8 in
  let order = ref [] in
  let pid_of cat clock =
    match Hashtbl.find_opt pids (cat, clock) with
    | Some p -> p
    | None ->
        let p = Hashtbl.length pids + 1 in
        Hashtbl.replace pids (cat, clock) p;
        order := (cat, clock, p) :: !order;
        p
  in
  List.iter (fun (e : span) -> ignore (pid_of e.cat e.clock)) s.s_events;
  let args_of attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs) in
  let event_json (e : span) =
    let base =
      [
        ("name", Json.String e.name);
        ("cat", Json.String e.cat);
        ("pid", Json.Int (pid_of e.cat e.clock));
        ("tid", Json.Int e.track);
        ("ts", Json.Float e.start_us);
      ]
    in
    match e.dur_us with
    | Some d -> Json.Obj (base @ [ ("ph", Json.String "X"); ("dur", Json.Float d); ("args", args_of e.attrs) ])
    | None -> Json.Obj (base @ [ ("ph", Json.String "i"); ("s", Json.String "t"); ("args", args_of e.attrs) ])
  in
  let meta name pid tid label =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String label) ]);
      ]
  in
  let process_meta =
    List.rev_map (fun (cat, clock, pid) -> meta "process_name" pid 0 (process_label cat clock)) !order
  in
  let thread_meta =
    List.filter_map
      (fun ((cat, clock, track), label) ->
        Option.map (fun pid -> meta "thread_name" pid track label) (Hashtbl.find_opt pids (cat, clock)))
      s.s_track_names
  in
  Json.Obj
    [
      ("traceEvents", Json.List (process_meta @ thread_meta @ List.map event_json s.s_events));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("dropped_events", Json.Int s.s_dropped) ]);
    ]

exception Malformed_trace of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed_trace s)) fmt

let of_chrome_json doc =
  let number = function
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> malformed "expected a number"
  in
  let str = function Json.String s -> s | _ -> malformed "expected a string" in
  let field name j =
    match Json.member name j with Some v -> v | None -> malformed "event missing %S field" name
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> malformed "no traceEvents list — not a Chrome trace"
  in
  (* First pass: process_name metadata gives each pid's (cat, clock). *)
  let procs = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match (Json.member "ph" e, Json.member "name" e) with
      | Some (Json.String "M"), Some (Json.String "process_name") ->
          let label =
            match Option.bind (Json.member "args" e) (Json.member "name") with
            | Some l -> str l
            | None -> malformed "process_name metadata without a label"
          in
          Hashtbl.replace procs (int_of_float (number (field "pid" e))) (split_process_label label)
      | _ -> ())
    events;
  let attrs_of e =
    match Json.member "args" e with
    | Some (Json.Obj fields) ->
        List.filter_map (fun (k, v) -> match v with Json.String s -> Some (k, s) | _ -> None) fields
    | _ -> []
  in
  let decode e =
    match str (field "ph" e) with
    | "M" -> None
    | ("X" | "i") as ph ->
        (* the event's own "cat" is authoritative; the pid label only
           supplies the clock domain *)
        let label_cat, clock =
          Option.value ~default:("?", Wall)
            (Hashtbl.find_opt procs (int_of_float (number (field "pid" e))))
        in
        let cat = match Json.member "cat" e with Some (Json.String c) -> c | _ -> label_cat in
        Some
          {
            name = str (field "name" e);
            cat;
            track = int_of_float (number (field "tid" e));
            clock;
            start_us = number (field "ts" e);
            dur_us = (if ph = "X" then Some (number (field "dur" e)) else None);
            attrs = attrs_of e;
          }
    | ph -> malformed "unsupported trace event phase %S" ph
  in
  List.filter_map decode events

let histogram_json h =
  let buckets =
    List.init
      (Array.length h.h_counts)
      (fun i ->
        let le =
          if i < Array.length h.h_edges then Json.Float h.h_edges.(i) else Json.String "+Inf"
        in
        Json.Obj [ ("le", le); ("count", Json.Int h.h_counts.(i)) ])
  in
  Json.Obj
    [
      ("count", Json.Int h.h_n);
      ("sum", Json.Float h.h_sum);
      ("min", if h.h_n = 0 then Json.Null else Json.Float h.h_min);
      ("max", if h.h_n = 0 then Json.Null else Json.Float h.h_max);
      ("buckets", Json.List buckets);
    ]

let to_metrics_json t =
  let s = snapshot t in
  let pick f = List.filter_map f s.s_metrics in
  Json.Obj
    [
      ( "counters",
        Json.Obj (pick (fun (n, m) -> match m with Counter c -> Some (n, Json.Int c.c_value) | _ -> None)) );
      ( "gauges",
        Json.Obj
          (pick (fun (n, m) -> match m with Gauge g when g.g_set -> Some (n, Json.Float g.g_value) | _ -> None))
      );
      ( "histograms",
        Json.Obj (pick (fun (n, m) -> match m with Histogram h -> Some (n, histogram_json h) | _ -> None)) );
      ( "spans",
        Json.Obj
          [
            ("recorded", Json.Int (List.length s.s_events));
            ("dropped", Json.Int s.s_dropped);
          ] );
    ]

let write_chrome t ~file = Json.write_file ~file (to_chrome_json t)
let read_chrome ~file = of_chrome_json (Json.read_file ~file)
let write_metrics t ~file = Json.write_file ~file (to_metrics_json t)

let prometheus_name name =
  let b = Bytes.of_string ("pld_" ^ name) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

let prometheus_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else if f > 0.0 then "+Inf"
  else if f < 0.0 then "-Inf"
  else "NaN"

(* Label values per the exposition format: backslash, double-quote and
   newline must be escaped inside the quotes. *)
let prometheus_escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text: backslash and newline escaped (quotes are legal there). *)
let prometheus_escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let to_prometheus t =
  let s = snapshot t in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun str -> Buffer.add_string buf str; Buffer.add_char buf '\n') fmt in
  (* Every metric gets its HELP/TYPE header (unset gauges too — header
     without a sample is legal and tells the scraper the metric
     exists). HELP carries the registry's original dotted name, which
     the [pld_]-prefixed sanitized name destroys. *)
  let header pn name kind =
    line "# HELP %s pld metric %s (%s)" pn (prometheus_escape_help name) kind;
    line "# TYPE %s %s" pn kind
  in
  List.iter
    (fun (name, m) ->
      let pn = prometheus_name name in
      match m with
      | Counter c ->
          header pn name "counter";
          line "%s %d" pn c.c_value
      | Gauge g ->
          header pn name "gauge";
          if g.g_set then line "%s %s" pn (prometheus_float g.g_value)
      | Histogram h ->
          header pn name "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i n ->
              cum := !cum + n;
              let le =
                if i < Array.length h.h_edges then prometheus_float h.h_edges.(i) else "+Inf"
              in
              line "%s_bucket{le=\"%s\"} %d" pn (prometheus_escape_label le) !cum)
            h.h_counts;
          line "%s_sum %s" pn (prometheus_float h.h_sum);
          line "%s_count %d" pn h.h_n)
    s.s_metrics;
  line "# HELP pld_spans_recorded telemetry spans captured in the ring";
  line "# TYPE pld_spans_recorded gauge";
  line "pld_spans_recorded %d" (List.length s.s_events);
  line "# HELP pld_spans_dropped telemetry spans dropped by the ring";
  line "# TYPE pld_spans_dropped gauge";
  line "pld_spans_dropped %d" s.s_dropped;
  Buffer.contents buf

(* ---------- human rendering ---------- *)

let render_section title = Printf.sprintf "\n===== %s =====\n" title

let render_summary t name =
  match samples t name with
  | [] -> "(empty)"
  | xs -> Pld_util.Stats.summary xs

let render_histogram ?(bins = 6) t name =
  match samples t name with
  | [] -> []
  | xs ->
      List.map
        (fun (lo, hi, n) -> Printf.sprintf "    %6.2f-%-6.2f %s" lo hi (String.make n '#'))
        (Pld_util.Stats.histogram ~bins xs)

let render_one (name, m) =
  match m with
  | Counter c -> Printf.sprintf "counter %-36s %d" name c.c_value
  | Gauge g -> Printf.sprintf "gauge   %-36s %s" name (if g.g_set then Printf.sprintf "%g" g.g_value else "(unset)")
  | Histogram h ->
      if h.h_n = 0 then Printf.sprintf "hist    %-36s (empty)" name
      else
        Printf.sprintf "hist    %-36s n=%d mean=%.3g min=%.3g max=%.3g" name h.h_n
          (h.h_sum /. float_of_int h.h_n) h.h_min h.h_max

let render_metrics t =
  let s = snapshot t in
  List.map render_one s.s_metrics

let render_metric t name =
  let s = snapshot t in
  Option.map (fun m -> render_one (name, m)) (List.assoc_opt name s.s_metrics)
