(** Seeded crash-recovery harness ([pldc chaos]).

    Each scenario injects one failure class and asserts the
    conservation invariants that make the service trustworthy under
    it — no attempt silently dropped, no corrupt read after a kill, a
    scrub finding exactly the damage done:

    - [crash-writer]: SIGKILL a forked store writer mid-[put]; the
      reopened store must scrub clean (atomic writes) and read back
      every surviving entry.
    - [kill-daemon]: SIGKILL a forked daemon (real {!Server} over a
      persistent store) under a compile flood; the stale socket must be
      reclaimed by the connect-probe and the store must recover with
      zero corrupt reads.
    - [corrupt-store]: damage a seeded three of six entries (truncate,
      bit-flip, header garble); the scrub must quarantine exactly
      those three, survivors still reading valid.
    - [conn-storm]: clients sending half a request and vanishing; every
      drop must be counted ([service.conn_errors]), the daemon keeps
      serving, and a dead socket costs exactly attempts-1 retries.
    - [overload]: wedged builds (hang injection) against watchdog,
      queued and mid-build deadlines, and the shed policy — with exact
      expected counter values.

    The in-process scenarios ({!deterministic_names}) produce exact
    counters given a seed — the regression sentinel pins them; the
    forked ones have seeded timing but timing-independent invariants. *)

type check = { ck_name : string; ck_ok : bool; ck_detail : string }

type scenario_report = {
  sr_name : string;
  sr_checks : check list;
  sr_counters : (string * int) list;  (** sorted by name *)
  sr_wall_s : float;
}

type report = { r_seed : int; r_scenarios : scenario_report list }

val scenario_names : string list
(** In execution order (forked scenarios first). *)

val deterministic_names : string list
(** The in-process subset whose counters are exact given a seed. *)

val forked_names : string list
(** The scenarios that [Unix.fork] a child. OCaml 5 forbids forking
    once any domain was ever spawned in the process, so these must run
    before the first {!Service} is created — {!run_seeds} orders this
    automatically, callers embedding scenarios elsewhere must too. *)

val run_seeds :
  ?seeds:int list ->
  ?dir:string ->
  ?only:string list ->
  ?log:(string -> unit) ->
  unit ->
  report list
(** Run [only] (default: all) scenarios for each seed (default [[7]]),
    with scratch stores and sockets under [dir] (default: the system
    temp directory). All forked scenarios run first (across every
    seed), then the domain-creating ones — see {!forked_names}. [log]
    receives one progress line per scenario. Ignores [SIGPIPE] for the
    duration. Raises [Invalid_argument] on an unknown scenario name. *)

val run :
  ?seed:int -> ?dir:string -> ?only:string list -> ?log:(string -> unit) -> unit -> report
(** [run_seeds ~seeds:[seed]] for a single seed (default 7). *)

val ok : report -> bool

val counters : report -> (string * int) list
(** All scenario counters, name-spaced ["<scenario>.<counter>"]. *)

val report_json : report -> Pld_telemetry.Json.t
val render : report -> string list
