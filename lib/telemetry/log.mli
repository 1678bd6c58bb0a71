(** Structured, leveled logging with a bounded ring buffer and a
    flight recorder.

    One {!t} fans each event out to up to three sinks:

    - a {b text sink} (human-readable one-liners, what used to be
      ad-hoc [Printf.eprintf] calls in the daemon and CLI);
    - a {b JSONL sink} (one JSON object per line with
      level/subsystem/trace-id fields — [pldd --log-json]);
    - a {b ring buffer} (always on, bounded) holding the most recent
      events for post-mortem dumps.

    The {b flight recorder} turns the ring into a crash artifact: once
    armed with a file and a telemetry sink, {!trip_flight} (and, by
    default, any [Error]-level event) atomically writes the last N
    events plus a full metrics snapshot — so a watchdog kill or a
    crashing daemon still leaves a recent, machine-readable record of
    what it was doing.

    All operations are mutex-protected and safe from any domain or
    thread. Events below the logger's level are dropped entirely (no
    sink, no ring). *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_name : string -> level option

type event = {
  ev_ts : float;  (** Unix seconds *)
  ev_level : level;
  ev_sub : string;  (** subsystem, e.g. ["service.queue"], ["daemon"] *)
  ev_msg : string;
  ev_trace : string option;  (** request trace id, when in a request's context *)
  ev_fields : (string * string) list;  (** structured key/values *)
}

val event_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
val render : event -> string
(** Human one-liner: [HH:MM:SS LEVEL sub: msg key=value ... trace=id]. *)

type t

val create : ?level:level -> ?ring_limit:int -> unit -> t
(** A logger with no sinks: events at or above [level] (default
    [Info]) land in the ring (bounded at [ring_limit], default 512)
    and nowhere else until sinks are set. *)

val default : t
(** The process-wide logger ([Info], ring only) every subsystem logs
    into unless handed an explicit one. *)

val set_level : t -> level -> unit
val set_text_sink : t -> (string -> unit) option -> unit
(** Rendered lines; [None] removes the sink. *)

val set_json_sink : t -> (string -> unit) option -> unit
(** One compact JSON line per event (no trailing newline); [None]
    removes the sink. *)

val log : t -> ?trace:string -> ?fields:(string * string) list -> level -> sub:string -> string -> unit

val debug : t -> ?trace:string -> ?fields:(string * string) list -> sub:string -> string -> unit
val info : t -> ?trace:string -> ?fields:(string * string) list -> sub:string -> string -> unit
val warn : t -> ?trace:string -> ?fields:(string * string) list -> sub:string -> string -> unit
val error : t -> ?trace:string -> ?fields:(string * string) list -> sub:string -> string -> unit

val events : t -> event list
(** The ring's contents, oldest first. *)

(** {2 Flight recorder} *)

val arm_flight : t -> telemetry:Telemetry.t -> file:string -> unit
(** Arm the recorder: {!trip_flight} writes [file], and so does every
    [Error]-level event, so a watchdog kill dumps without anyone
    remembering to. *)

val disarm_flight : t -> unit

val trip_flight : t -> reason:string -> unit
(** Write the dump atomically (tmp + rename, so a reader never sees a
    torn file). No-op when not armed; write failures are swallowed —
    the flight recorder must never take the process down with it. *)

(** {2 Trace ids} *)

val mint_trace_id : unit -> string
(** A process-unique 16-hex-digit request trace id (time, pid and a
    process-local counter) — minted client-side, carried on the wire,
    and stamped on every span and log event of that request's life. *)
