(** Per-layer attribution for [--trace 1] runs.

    The benchmark adds no tracing inside the library. After each timed
    operation a traced run replays the cheap layer entry points that
    operation exercised ([Hls_compile.compile], [Netlist.diff],
    [Codegen.compile] + [Elf.pack], [Runner.noc_replay],
    [Store.put]/[Store.find]) inside spans of its own, and takes the
    expensive layers from values the timed call already returned (the
    P&R phase seconds and counters in [Pnr.result], the netlist built
    by [Netlist.merge]/[add_fifo_links], the service's queue and build
    seconds). Busy times are sequential seconds. Their sum over the
    summed wall of the timed operations is [attrib.explained_frac]; the
    wall spent replaying, over the same sum, is [trace.overhead_frac]. *)

module B := Pld_core.Build

type t

val create : store_dir:string -> t
(** [store_dir] holds the private store the [engine.store] replay
    writes to and reads from. *)

val compile : t -> wall:float -> ?previous:B.app -> B.app -> unit
(** Attribute one timed [Build.compile] (wall seconds [wall]) that
    returned [app]; [previous] is the app a delta compile was seeded
    with. *)

val run :
  t ->
  deploy_s:float ->
  run_s:float ->
  check_s:float ->
  B.app ->
  Pld_core.Runner.result ->
  unit
(** Attribute one timed deploy + run + check of [app]. *)

val cache : t -> B.cache -> unit
(** Fold a cache handle's lifetime hit/miss counts and its store's size
    into the [engine.store] metrics; call once per handle, after its
    last use. *)

val request : t -> latency:float -> late:float -> Pld_service.Service.outcome -> unit
(** Attribute one service request: [late] is how far behind schedule
    it was submitted, [latency] its end-to-end seconds. *)

val service_rate : t -> int -> unit
(** Record the highest rung of the rate ladder that met the p90 limit. *)

val generator : t -> sent:int -> rejected:int -> late_frac:float -> unit
(** The open-loop generator's totals; [late_frac] is its largest
    lateness over the mean inter-arrival gap. *)

val metrics : t -> Measure.metric list
(** Every per-layer metric, in the order [BENCHMARK.json] lists them;
    layers a workload never exercised report 0. *)

val write_trace : t -> file:string -> unit
(** The replay spans as a Chrome trace-event file. *)
