(** The daemon's serving loop, shared between [bin/pldd] and the chaos
    harness: a Unix-domain-socket accept loop (one thread per
    connection) in front of a {!Service.t}, with safe socket claiming,
    graceful drain on stop, and per-connection error accounting.

    Robustness contracts:

    - Startup {e probes} an existing socket file with a connect before
      touching it. A live daemon answering the probe is a hard error; a
      refused connection marks the socket stale (crashed daemon) and it
      is unlinked; a non-socket file at the path is refused outright.
    - Connection-level transport failures (a client gone mid-reply,
      [EPIPE], reset) bump the [service.conn_errors] counter and emit
      one structured log line each — they are never silently swallowed.
    - {!stop} (also installed on [SIGTERM]/[SIGINT]) closes the
      listener, drains the service under its grace budget — during
      which new submissions are refused with honest [DRAINING] replies —
      then joins the connection threads and removes the socket. *)

type t

val service : t -> Service.t

val stop : t -> unit
(** Begin shutdown: close the listener and let {!serve} fall into its
    drain phase. Safe from a signal handler; idempotent. *)

val draining : t -> bool
(** True once {!stop} was called or the underlying service is
    draining. *)

val reply_of_reject : id:int -> Service.reject -> Protocol.reply
(** Map a structured service refusal onto the wire: [ok = false] with
    [state] ({!Service.reject_state}) and, for the transient classes, a
    [retry_after_ms] hint {!Client.rpc_retry} honors. *)

val handle : t -> resolve:(string -> (Pld_ir.Graph.t, string) result) -> Protocol.envelope -> Protocol.reply
(** Default request semantics: [Ping] (reports draining), [Stats],
    [Shutdown] (calls {!stop}), and [Compile] — resolving the benchmark
    name via [resolve] and forwarding the envelope's tenant, priority
    and [deadline_ms] to {!Service.compile}. [Run] answers with an
    error; embedders that support it wrap this function.

    Admin verbs: [Status] answers {!Service.status_json}, [Health]
    {!Service.health_json}, and [Metrics] the registry both ways — a
    ["prometheus"] text exposition ({!Pld_telemetry.Telemetry.to_prometheus})
    and a ["metrics"] JSON document — plus a ["flushed"] flag after an
    on-demand flush of the [metrics_out] snapshot. *)

val claim_socket : string -> (unit, string) result
(** The startup probe described above, exposed for tests: ensure [path]
    is free to bind, unlinking only a provably-stale socket. *)

val serve :
  socket:string ->
  ?drain_grace_s:float ->
  ?install_signals:bool ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  ?logger:Pld_telemetry.Log.t ->
  ?metrics_out:string ->
  ?metrics_interval_s:float ->
  ?on_listen:(unit -> unit) ->
  service:Service.t ->
  handler:(t -> Protocol.envelope -> Protocol.reply) ->
  unit ->
  (unit, string) result
(** Claim the socket, bind, and serve until {!stop}; returns after the
    drain completes (the service is shut down and the socket removed).
    [Error] means the socket could not be claimed. [drain_grace_s]
    (default 5 s) bounds how long in-flight builds may finish after
    {!stop}; [install_signals] (default true) wires
    [SIGTERM]/[SIGINT] to {!stop} and ignores [SIGPIPE]; [on_listen]
    fires once the socket is accepting (the daemon's readiness
    line).

    [logger] (default {!Pld_telemetry.Log.default}) receives the
    server's structured events (listening/draining at [Info],
    connection transport errors at [Warn]). With [metrics_out], the
    telemetry metrics snapshot is written there atomically every
    [metrics_interval_s] (default 5 s), on every [Metrics] request,
    and once more at shutdown — so even a [SIGKILL]'d daemon leaves a
    snapshot no older than one interval. *)
