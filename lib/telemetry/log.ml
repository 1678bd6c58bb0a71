type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type event = {
  ev_ts : float;
  ev_level : level;
  ev_sub : string;
  ev_msg : string;
  ev_trace : string option;
  ev_fields : (string * string) list;
}

let event_json e =
  let base =
    [
      ("ts", Json.Float e.ev_ts);
      ("level", Json.String (level_name e.ev_level));
      ("sub", Json.String e.ev_sub);
      ("msg", Json.String e.ev_msg);
    ]
  in
  let trace = match e.ev_trace with Some id -> [ ("trace", Json.String id) ] | None -> [] in
  let fields =
    match e.ev_fields with
    | [] -> []
    | fs -> [ ("fields", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) fs)) ]
  in
  Json.Obj (base @ trace @ fields)

let event_of_json j =
  let str k = match Json.member k j with Some (Json.String s) -> Some s | _ -> None in
  let num k =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  match (num "ts", Option.bind (str "level") level_of_name, str "sub", str "msg") with
  | Some ts, Some lvl, Some sub, Some msg ->
      let fields =
        match Json.member "fields" j with
        | Some (Json.Obj kvs) ->
            List.filter_map (fun (k, v) -> match v with Json.String s -> Some (k, s) | _ -> None) kvs
        | _ -> []
      in
      Ok { ev_ts = ts; ev_level = lvl; ev_sub = sub; ev_msg = msg; ev_trace = str "trace"; ev_fields = fields }
  | _ -> Error "log event: missing ts/level/sub/msg"

let render e =
  let tm = Unix.localtime e.ev_ts in
  let fields = List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) e.ev_fields in
  let trace = match e.ev_trace with Some id -> Printf.sprintf " trace=%s" id | None -> "" in
  Printf.sprintf "%02d:%02d:%02d %-5s %s: %s%s%s" tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (String.uppercase_ascii (level_name e.ev_level))
    e.ev_sub e.ev_msg (String.concat "" fields) trace

type flight = { fl_telemetry : Telemetry.t; fl_file : string }

type t = {
  lock : Mutex.t;
  mutable min_level : level;
  ring_limit : int;
  ring : event Queue.t;
  mutable text_sink : (string -> unit) option;
  mutable json_sink : (string -> unit) option;
  mutable flight : flight option;
}

let create ?(level = Info) ?(ring_limit = 512) () =
  {
    lock = Mutex.create ();
    min_level = level;
    ring_limit = max 1 ring_limit;
    ring = Queue.create ();
    text_sink = None;
    json_sink = None;
    flight = None;
  }

let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_level t lvl = locked t (fun () -> t.min_level <- lvl)
let set_text_sink t sink = locked t (fun () -> t.text_sink <- sink)
let set_json_sink t sink = locked t (fun () -> t.json_sink <- sink)

let events t = locked t (fun () -> List.of_seq (Queue.to_seq t.ring))

(* ---------- flight recorder ---------- *)

let arm_flight t ~telemetry ~file =
  locked t (fun () -> t.flight <- Some { fl_telemetry = telemetry; fl_file = file })

let disarm_flight t = locked t (fun () -> t.flight <- None)

let flight_json t ~reason ~telemetry =
  let evs = events t in
  Json.Obj
    [
      ("reason", Json.String reason);
      ("tripped_at", Json.Float (Unix.gettimeofday ()));
      ("events", Json.List (List.map event_json evs));
      ("metrics", Telemetry.to_metrics_json telemetry);
    ]

let write_flight t fl ~reason =
  (* tmp + rename on the same directory, so a scraper racing the dump
     never reads a torn file; any failure is swallowed — the recorder
     must not add a crash to the crash. *)
  try
    let doc = flight_json t ~reason ~telemetry:fl.fl_telemetry in
    let tmp = fl.fl_file ^ ".tmp" in
    Json.write_file ~file:tmp doc;
    Sys.rename tmp fl.fl_file
  with _ -> ()

let trip_flight t ~reason =
  match locked t (fun () -> t.flight) with
  | Some fl -> write_flight t fl ~reason
  | None -> ()

(* ---------- emission ---------- *)

let log t ?trace ?(fields = []) level ~sub msg =
  let enabled = locked t (fun () -> level_rank level >= level_rank t.min_level) in
  if enabled then begin
    let e =
      { ev_ts = Unix.gettimeofday (); ev_level = level; ev_sub = sub; ev_msg = msg; ev_trace = trace; ev_fields = fields }
    in
    let text_sink, json_sink, flight =
      locked t (fun () ->
          Queue.push e t.ring;
          while Queue.length t.ring > t.ring_limit do
            ignore (Queue.pop t.ring)
          done;
          (t.text_sink, t.json_sink, t.flight))
    in
    (* Sinks run outside the lock: a slow file write must not serialize
       every logging thread behind it. *)
    (match text_sink with Some f -> (try f (render e) with _ -> ()) | None -> ());
    (match json_sink with Some f -> (try f (Json.to_string (event_json e)) with _ -> ()) | None -> ());
    match flight with
    | Some fl when level = Error ->
        write_flight t fl ~reason:(Printf.sprintf "error event: %s: %s" sub msg)
    | _ -> ()
  end

let debug t ?trace ?fields ~sub msg = log t ?trace ?fields Debug ~sub msg
let info t ?trace ?fields ~sub msg = log t ?trace ?fields Info ~sub msg
let warn t ?trace ?fields ~sub msg = log t ?trace ?fields Warn ~sub msg
let error t ?trace ?fields ~sub msg = log t ?trace ?fields Error ~sub msg

(* ---------- trace ids ---------- *)

let trace_counter = Atomic.make 0

let mint_trace_id () =
  let n = Atomic.fetch_and_add trace_counter 1 in
  let us = Int64.of_float (Unix.gettimeofday () *. 1e6) in
  (* 40 bits of time (µs, wraps every ~12 days), 12 of pid, 12 of
     counter: unique within a process and effectively unique across the
     clients of one daemon. *)
  let id =
    Int64.logor
      (Int64.shift_left (Int64.logand us 0xFF_FFFF_FFFFL) 24)
      (Int64.logor
         (Int64.of_int ((Unix.getpid () land 0xFFF) lsl 12))
         (Int64.of_int (n land 0xFFF)))
  in
  Printf.sprintf "%016Lx" id
