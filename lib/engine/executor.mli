(** Parallel job-graph executor.

    Runs the ready frontier of a {!Jobgraph.t} on a pool of OCaml 5
    domains (bounded by [workers]) and measures real wall-clock — the
    number the paper's Fig. 9 cluster model ({!Makespan.lpt}) only
    predicts. The calling domain is always worker 0 and [workers - 1]
    more run on domains from {!Domain_pool}, so [workers = 1] uses
    none. A free worker takes the ready node that comes first in
    {!Jobgraph.order}, so one worker runs the graph exactly in that
    order. Every worker
    count produces identical artifacts (jobs must be deterministic,
    which seeded P&R is), differing only in wall-clock fields and span
    interleaving.

    [pace] throttles each job to [pace *. model] wall seconds (sleeping
    off whatever its real compute did not use). The simulator's real
    compute is microseconds-scale while the modeled vendor-tool time it
    stands for is minutes-scale; pacing makes measured wall-clock
    reflect concurrent execution of those modeled tool invocations —
    including on a single-core host, where a blocked "tool run" still
    overlaps with others. [pace = 0.] (default) disables throttling.

    Robustness: a flaky job (transient tool crash) can be retried
    ([max_retries]) and, with [keep_going], a job that still fails is
    *quarantined* — it and its transitive dependents are skipped, every
    other job completes, and the result names the casualties — so one
    bad compile does not kill a 50-page build. *)

type 'a result = {
  artifacts : (string * 'a) list;
      (** completed nodes' artifacts, in submission order (quarantined
          nodes are absent) *)
  quarantined : (string * string) list;
      (** [(job, error)] for every skipped node, in submission order;
          empty unless [keep_going] swallowed failures *)
  wall_seconds : float;  (** measured, whole graph *)
}

exception Deadline_passed
(** The run crossed a tool-phase boundary after its [deadline]. *)

val run :
  ?workers:int ->
  ?pace:float ->
  ?max_retries:int ->
  ?keep_going:bool ->
  ?deadline:float ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  ?attrs:(string * string) list ->
  'a Jobgraph.t ->
  'a result
(** Executes the graph to completion.

    [deadline] (absolute [Unix.gettimeofday] time, default none) is
    checked at every tool-phase boundary — graph start and finish, and
    each job attempt's start, finish and failure. Past it the run raises
    {!Deadline_passed} (never retried or quarantined): in-flight jobs
    finish, no new job starts.

    [attrs] (default empty) is appended to the attributes of every
    telemetry span and instant this run records — the graph span, the
    per-job spans, the modeled phase spans, and the
    failure/retry/quarantine instants. The service uses it to stamp a request's trace id onto
    the whole build, so one distributed trace stitches the client RPC
    to the tool phases it paid for.

    [telemetry] (default {!Pld_telemetry.Telemetry.default}) receives
    the run as spans and metrics: a ["graph"] span over the whole run,
    one exception-safe wall-clock span per job attempt on the worker's
    track, instants for failures/retries/quarantines, modeled
    per-phase spans for each finished job, and counters
    ([engine.jobs_finished], [engine.retries], ...). These are the
    run's only record. Every span of
    one run — the graph span, the per-job spans, and the modeled phase
    spans — carries a ["run"] attribute holding a process-unique run
    id, and each job span carries its dependency list in a ["deps"]
    attribute (comma-joined job ids, [""] for roots), so an analyzer
    reading a shared sink can select one run's spans and rebuild the
    job DAG without re-running the build (see [Pld_insight]).

    [max_retries] (default 0) re-runs a failed job that many extra
    times, recording a ["retry"] instant each. [keep_going] (default
    false) quarantines jobs whose retries are exhausted instead of
    aborting: the failure is recorded (a ["quarantined"] instant),
    dependents are skipped, and the run returns normally with the
    survivors.

    Without [keep_going]: if a job ultimately fails, no new jobs start,
    in-flight jobs finish, and the original exception is re-raised on
    the calling domain after the pool quiesces. *)
