(* The daemon's serving loop, extracted from bin/pldd so a chaos
   harness (or a test) can run the very same socket server in a forked
   child. One thread per connection; requests flow into the
   multi-tenant Service queue; structured rejections map onto wire
   states the retrying client understands. *)

module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module Log = Pld_telemetry.Log

type t = {
  sv_socket : string;
  sv_listen : Unix.file_descr;
  sv_service : Service.t;
  sv_telemetry : T.t;
  sv_grace_s : float;
  sv_logger : Log.t;
  sv_metrics_out : string option;
  sv_stopping : bool Atomic.t;
}

let service t = t.sv_service

(* Atomic tmp + rename, so a scraper (or a post-crash reader) never
   sees a torn snapshot; failures are logged, never raised — metrics
   persistence must not take the daemon down. *)
let flush_metrics t =
  match t.sv_metrics_out with
  | None -> false
  | Some file -> (
      try
        let tmp = file ^ ".tmp" in
        Json.write_file ~file:tmp (T.to_metrics_json t.sv_telemetry);
        Sys.rename tmp file;
        true
      with Sys_error msg | Unix.Unix_error (_, msg, _) ->
        Log.warn t.sv_logger ~fields:[ ("file", file) ] ~sub:"server.metrics"
          (Printf.sprintf "snapshot failed: %s" msg);
        false)

let stop t =
  if not (Atomic.exchange t.sv_stopping true) then
    (* Closing the listener pops the accept loop out of its wait. *)
    try Unix.shutdown t.sv_listen Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let draining t = Atomic.get t.sv_stopping || Service.draining t.sv_service

let reply_of_reject ~id rej =
  let state = Service.reject_state rej and msg = Service.reject_message rej in
  match Service.reject_retry_after_ms rej with
  | Some ms -> Protocol.reply_busy ~id ~retry_after_ms:ms ~state msg
  | None -> Protocol.reply_busy ~id ~state msg

(* Everything except Run (which needs a card and a workload — the
   embedder's business): ping, stats, shutdown, and deadline-carrying
   compile against [resolve]d graphs. *)
let handle t ~resolve (e : Protocol.envelope) =
  let id = e.Protocol.rq_id in
  match e.Protocol.req with
  | Protocol.Ping ->
      Protocol.reply_ok ~id
        (Json.Obj [ ("pong", Json.Bool true); ("draining", Json.Bool (draining t)) ])
  | Protocol.Stats -> Protocol.reply_ok ~id (Service.stats_json t.sv_service)
  | Protocol.Status -> Protocol.reply_ok ~id (Service.status_json t.sv_service)
  | Protocol.Health -> Protocol.reply_ok ~id (Service.health_json t.sv_service)
  | Protocol.Metrics ->
      (* On-demand flush: a scraper asking for metrics also refreshes
         the on-disk snapshot, so [--metrics-out] is never stale. *)
      let flushed = flush_metrics t in
      Protocol.reply_ok ~id
        (Json.Obj
           [
             ("prometheus", Json.String (T.to_prometheus t.sv_telemetry));
             ("metrics", T.to_metrics_json t.sv_telemetry);
             ("flushed", Json.Bool flushed);
           ])
  | Protocol.Shutdown ->
      stop t;
      Protocol.reply_ok ~id (Json.Obj [ ("stopping", Json.Bool true) ])
  | Protocol.Run _ -> Protocol.reply_error ~id "run is not supported by this server"
  | Protocol.Profile { bench; level } -> (
      match (resolve bench, Pld_core.Build.level_of_name level) with
      | Error msg, _ | _, Error msg -> Protocol.reply_error ~id msg
      | Ok g, Ok level ->
          (* The profile rides the build's own cache key, so a tenant
             whose compile dedup'd onto another's build reads the
             primary run's profile here. *)
          let body =
            match Service.find_profile t.sv_service g level with
            | Some doc -> [ ("found", Json.Bool true); ("profile", doc) ]
            | None -> [ ("found", Json.Bool false); ("profile", Json.Null) ]
          in
          let body =
            match e.Protocol.trace with
            | Some tr -> body @ [ ("trace", Json.String tr) ]
            | None -> body
          in
          Protocol.reply_ok ~id (Json.Obj body))
  | Protocol.Compile { bench; level } -> (
      match (resolve bench, Pld_core.Build.level_of_name level) with
      | Error msg, _ | _, Error msg -> Protocol.reply_error ~id msg
      | Ok g, Ok level -> (
          match
            Service.compile t.sv_service ~tenant:e.Protocol.tenant ~priority:e.Protocol.priority
              ?deadline_ms:e.Protocol.deadline_ms ?trace_id:e.Protocol.trace ~level g
          with
          | Ok outcome -> Protocol.reply_ok ~id (Service.outcome_json outcome)
          | Error rej -> reply_of_reject ~id rej))

(* Per-connection loop. Transport failures (a client that vanished
   mid-reply, EPIPE on a closed pipe) are counted and logged — one
   structured line each — instead of silently swallowed. *)
let handle_conn t handler ~conn_id fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send reply =
    output_string oc (Json.to_string (Protocol.reply_to_json reply));
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        (match Json.of_string line with
        | exception Json.Parse_error msg -> send (Protocol.reply_error ~id:0 ("bad request: " ^ msg))
        | j -> (
            match Protocol.envelope_of_json j with
            | Error msg -> send (Protocol.reply_error ~id:0 msg)
            | Ok envelope -> send (handler t envelope)));
        loop ()
  in
  let conn_error op msg =
    T.incr (T.counter t.sv_telemetry "service.conn_errors");
    Log.warn t.sv_logger
      ~fields:[ ("conn", string_of_int conn_id); ("op", op) ]
      ~sub:"server.conn"
      (Printf.sprintf "transport error: %s" msg)
  in
  (try loop () with
  | Sys_error msg -> conn_error "io" msg
  | Unix.Unix_error (err, fn, _) -> conn_error fn (Unix.error_message err));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Starting up must never clobber a live daemon: probe the existing
   socket with a connect first. An answering peer is a hard error; a
   refused connection is a stale socket from a crashed daemon and safe
   to unlink; a non-socket file is someone else's and refused too. *)
let claim_socket path =
  if not (Sys.file_exists path) then Ok ()
  else
    match (Unix.lstat path).Unix.st_kind with
    | exception Unix.Unix_error (err, _, _) ->
        Error (Printf.sprintf "cannot stat %s: %s" path (Unix.error_message err))
    | Unix.S_SOCK -> (
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error (Printf.sprintf "a daemon is already listening on %s" path)
        | exception Unix.Unix_error _ -> (
            (try Unix.close fd with Unix.Unix_error _ -> ());
            (* Nothing answered: stale socket, reclaim it. *)
            match Unix.unlink path with
            | () -> Ok ()
            | exception Unix.Unix_error (err, _, _) ->
                Error
                  (Printf.sprintf "cannot remove stale socket %s: %s" path
                     (Unix.error_message err))))
    | _ ->
        Error (Printf.sprintf "refusing to remove %s: exists and is not a socket" path)

(* Pending connections the kernel queues before refusing new ones. *)
let backlog = 64

let serve ~socket ?(drain_grace_s = 5.0) ?(install_signals = true)
    ?(telemetry = T.default) ?(logger = Log.default) ?metrics_out ?(metrics_interval_s = 5.0)
    ?on_listen ~service:svc ~handler () =
  match claim_socket socket with
  | Error _ as e -> e
  | Ok () ->
      let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.bind listen_fd (Unix.ADDR_UNIX socket) with
      | () -> ()
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          raise
            (Sys_error (Printf.sprintf "bind %s: %s" socket (Unix.error_message err))));
      Unix.listen listen_fd backlog;
      let t =
        {
          sv_socket = socket;
          sv_listen = listen_fd;
          sv_service = svc;
          sv_telemetry = telemetry;
          sv_grace_s = drain_grace_s;
          sv_logger = logger;
          sv_metrics_out = metrics_out;
          sv_stopping = Atomic.make false;
        }
      in
      if install_signals then begin
        Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop t));
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop t));
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore
      end;
      (* Periodic snapshot tick: a SIGKILL'd daemon still leaves a
         recent metrics file. Sleeps in short slices so shutdown is not
         held hostage to the interval. *)
      let snapshot_thread =
        Option.map
          (fun _ ->
            Thread.create
              (fun () ->
                let slice = 0.05 in
                let rec loop slept =
                  if not (Atomic.get t.sv_stopping) then begin
                    Thread.delay slice;
                    let slept = slept +. slice in
                    if slept >= metrics_interval_s then begin
                      ignore (flush_metrics t);
                      loop 0.0
                    end
                    else loop slept
                  end
                in
                loop 0.0)
              ())
          metrics_out
      in
      Option.iter (fun f -> f ()) on_listen;
      Log.info logger ~fields:[ ("socket", socket) ] ~sub:"server" "listening";
      let threads = ref [] in
      let conns = ref 0 in
      (try
         while not (Atomic.get t.sv_stopping) do
           let fd, _ = Unix.accept listen_fd in
           if Atomic.get t.sv_stopping then Unix.close fd
           else begin
             incr conns;
             let conn_id = !conns in
             threads := Thread.create (handle_conn t handler ~conn_id) fd :: !threads
           end
         done
       with Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED | Unix.EINTR), _, _) ->
         ());
      (* Graceful drain: no new connections (listener is down), new
         submissions refused as DRAINING, in-flight work gets the grace
         budget to finish, then the service stops. *)
      Log.info logger
        ~fields:[ ("grace_s", Printf.sprintf "%.1f" t.sv_grace_s) ]
        ~sub:"server" "draining";
      Service.drain ~grace_s:t.sv_grace_s t.sv_service;
      List.iter Thread.join !threads;
      Option.iter Thread.join snapshot_thread;
      ignore (flush_metrics t);
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      if Sys.file_exists socket then (try Unix.unlink socket with Unix.Unix_error _ -> ());
      Ok ()
