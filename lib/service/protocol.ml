module Json = Pld_telemetry.Json

type request =
  | Ping
  | Compile of { bench : string; level : string }
  | Run of { bench : string; level : string; frames : int }
  | Profile of { bench : string; level : string }
  | Stats
  | Status
  | Metrics
  | Health
  | Shutdown

type envelope = {
  rq_id : int;
  tenant : string;
  priority : int;
  deadline_ms : int option;
  trace : string option;
  req : request;
}

let envelope ?(id = 0) ?(tenant = "default") ?(priority = 0) ?deadline_ms ?trace req =
  { rq_id = id; tenant; priority; deadline_ms; trace; req }

let envelope_to_json e =
  let base =
    [
      ("id", Json.Int e.rq_id);
      ("tenant", Json.String e.tenant);
      ("priority", Json.Int e.priority);
    ]
    @ (match e.deadline_ms with Some ms -> [ ("deadline_ms", Json.Int ms) ] | None -> [])
    @ (match e.trace with Some id -> [ ("trace", Json.String id) ] | None -> [])
  in
  let rest =
    match e.req with
    | Ping -> [ ("op", Json.String "ping") ]
    | Stats -> [ ("op", Json.String "stats") ]
    | Status -> [ ("op", Json.String "status") ]
    | Metrics -> [ ("op", Json.String "metrics") ]
    | Health -> [ ("op", Json.String "health") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
    | Compile { bench; level } ->
        [ ("op", Json.String "compile"); ("bench", Json.String bench); ("level", Json.String level) ]
    | Run { bench; level; frames } ->
        [
          ("op", Json.String "run");
          ("bench", Json.String bench);
          ("level", Json.String level);
          ("frames", Json.Int frames);
        ]
    | Profile { bench; level } ->
        [ ("op", Json.String "profile"); ("bench", Json.String bench); ("level", Json.String level) ]
  in
  Json.Obj (base @ rest)

let str_field name j = match Json.member name j with Some (Json.String s) -> Some s | _ -> None
let int_field name j = match Json.member name j with Some (Json.Int i) -> Some i | _ -> None

let envelope_of_json j =
  match str_field "op" j with
  | None -> Error "missing \"op\" field"
  | Some op -> (
      let id = Option.value ~default:0 (int_field "id" j) in
      let tenant = Option.value ~default:"default" (str_field "tenant" j) in
      let priority = Option.value ~default:0 (int_field "priority" j) in
      let deadline_ms = int_field "deadline_ms" j in
      let trace = str_field "trace" j in
      let level () = Option.value ~default:"O1" (str_field "level" j) in
      let with_req req = Ok { rq_id = id; tenant; priority; deadline_ms; trace; req } in
      match op with
      | "ping" -> with_req Ping
      | "stats" -> with_req Stats
      | "status" -> with_req Status
      | "metrics" -> with_req Metrics
      | "health" -> with_req Health
      | "shutdown" -> with_req Shutdown
      | "compile" -> (
          match str_field "bench" j with
          | Some bench -> with_req (Compile { bench; level = level () })
          | None -> Error "compile: missing \"bench\" field")
      | "run" -> (
          match str_field "bench" j with
          | Some bench ->
              let frames = Option.value ~default:8 (int_field "frames" j) in
              with_req (Run { bench; level = level (); frames })
          | None -> Error "run: missing \"bench\" field")
      | "profile" -> (
          match str_field "bench" j with
          | Some bench -> with_req (Profile { bench; level = level () })
          | None -> Error "profile: missing \"bench\" field")
      | other -> Error (Printf.sprintf "unknown op %S" other))

type reply = { rp_id : int; ok : bool; body : Json.t }

let reply_ok ~id body = { rp_id = id; ok = true; body }
let reply_error ~id msg = { rp_id = id; ok = false; body = Json.Obj [ ("error", Json.String msg) ] }

(* A refusal the client should treat as transient: [state] names the
   server condition (SHED, DRAINING, QUEUE_FULL, ...) and
   [retry_after_ms], when present, is the server's estimate of when
   the same request would be admitted. *)
let reply_busy ~id ?retry_after_ms ~state msg =
  {
    rp_id = id;
    ok = false;
    body =
      Json.Obj
        ([ ("error", Json.String msg); ("state", Json.String state) ]
        @
        match retry_after_ms with
        | Some ms -> [ ("retry_after_ms", Json.Int ms) ]
        | None -> []);
  }

let reply_to_json r =
  Json.Obj [ ("id", Json.Int r.rp_id); ("ok", Json.Bool r.ok); ("body", r.body) ]

let reply_of_json j =
  match (int_field "id" j, Json.member "ok" j, Json.member "body" j) with
  | Some id, Some (Json.Bool ok), Some body -> Ok { rp_id = id; ok; body }
  | _ -> Error "malformed reply (want {id, ok, body})"

let error_message r =
  match Json.member "error" r.body with Some (Json.String s) -> Some s | _ -> None

let retry_after_ms r = int_field "retry_after_ms" r.body
let reply_state r = str_field "state" r.body

(* ---------- status rendering ---------- *)

(* Renders the [Status] reply body (the document {!Service.status_json}
   builds) for humans — [pldc status] and each [pldc top] frame. Kept
   next to the wire format so the document shape and its rendering
   evolve together. *)
let render_status j =
  let str k d = match Json.member k j with Some (Json.String s) -> s | _ -> d in
  let num o k =
    match Json.member k o with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let int_ o k = match Json.member k o with Some (Json.Int i) -> i | _ -> 0 in
  let obj k = match Json.member k j with Some (Json.Obj _ as o) -> o | _ -> Json.Obj [] in
  let list k = match Json.member k j with Some (Json.List l) -> l | _ -> [] in
  let q = obj "queue" in
  let c = obj "counters" in
  let head =
    Printf.sprintf "pldd up %.1fs  state=%s  queue %d deep, %d in flight (%d workers)"
      (num j "uptime_s") (str "state" "?") (int_ q "depth") (int_ q "in_flight")
      (int_ q "workers")
  in
  let counters =
    Printf.sprintf
      "counters: submitted %d  completed %d  failed %d  rejected %d  shed %d  deadline %d  lost \
       %d  watchdog %d  dedup %d  cross %d"
      (int_ c "submitted") (int_ c "completed") (int_ c "failed") (int_ c "rejected")
      (int_ c "shed") (int_ c "deadline_exceeded") (int_ c "lost") (int_ c "watchdog_kills")
      (int_ c "deduped") (int_ c "cross_tenant_hits")
  in
  let tenants =
    List.map
      (fun tj ->
        let lat = match Json.member "latency" tj with Some (Json.Obj _ as o) -> o | _ -> Json.Obj [] in
        Printf.sprintf
          "  tenant %-12s q %2d/%-3d  run %2d/%-2d  done %4d  p50 %.3fs p95 %.3fs p99 %.3fs (n=%d)"
          (match Json.member "tenant" tj with Some (Json.String s) -> s | _ -> "?")
          (int_ tj "queued") (int_ tj "max_queued") (int_ tj "in_flight")
          (int_ tj "max_in_flight") (int_ tj "completed") (num lat "p50_s") (num lat "p95_s")
          (num lat "p99_s") (int_ lat "count"))
      (list "tenants")
  in
  let builds =
    List.map
      (fun bj ->
        Printf.sprintf "  build #%d tenant=%s graph=%s level=%s age=%.2fs trace=%s" (int_ bj "id")
          (match Json.member "tenant" bj with Some (Json.String s) -> s | _ -> "?")
          (match Json.member "graph" bj with Some (Json.String s) -> s | _ -> "?")
          (match Json.member "level" bj with Some (Json.String s) -> s | _ -> "?")
          (num bj "age_s")
          (match Json.member "trace" bj with Some (Json.String s) -> s | _ -> "-"))
      (list "builds")
  in
  (head :: counters :: tenants) @ builds
