(** Seeded fault injection for the whole deployment path.

    One [spec] describes *what* can go wrong; one injector {!t} (a
    [spec] plus a deterministic {!Pld_util.Rng} stream and per-site
    attempt counters) decides *when* it goes wrong. Equal seeds give
    equal fault schedules, so every recovery trace is reproducible —
    the property the CI fault suite pins across seeds.

    Fault classes (DESIGN.md §9):
    - defective pages: configuration frames for the page never verify;
    - flaky page loads: the first [n] load attempts of a page corrupt
      (transient PCIe/DFX glitch), later attempts succeed;
    - lossy/corrupting NoC links: each link traversal drops or
      bit-flips the flit with the given probability;
    - softcore hang/trap: a named instance stops making progress (or
      traps) once its core passes a cycle threshold;
    - flaky compile jobs: a named engine job fails its first [n]
      attempts (transient tool crash). *)

type spec = {
  defective_pages : int list;
  drop_rate : float;  (** per link traversal, in [0,1) *)
  corrupt_rate : float;  (** per link traversal, in [0,1) *)
  flaky_loads : (int * int) list;  (** (page, first n loads corrupt) *)
  hangs : (string * int) list;  (** (instance, hang after cycles) *)
  traps : (string * int) list;  (** (instance, trap after cycles) *)
  flaky_jobs : (string * int) list;  (** (job id, first n attempts fail) *)
}

val empty : spec

val is_empty : spec -> bool

val parse : string -> (spec, string) result
(** Comma-separated items: [page=N], [drop=F], [corrupt=F],
    [load=PAGE\@N], [hang=INST\@N], [trap=INST\@N], [job=ID\@N].
    E.g. ["page=3,drop=0.01,hang=stage1@40000"]. *)

val parse_exn : string -> spec
(** Raises [Invalid_argument] with the parse error. *)

val to_string : spec -> string
(** Round-trips through {!parse}. *)

type t
(** An injector: spec + seeded RNG + attempt counters. Stateful — rate
    draws advance the RNG and load/job checks bump counters — so share
    one injector across a scenario and rebuild it (same seed) to
    replay the identical fault schedule. *)

val create : ?seed:int -> spec -> t
(** [seed] defaults to 1. *)

val seed : t -> int
val spec : t -> spec

val load_corrupts : t -> page:int -> bool
(** Decide the fate of one load attempt of [page] (defective pages
    always corrupt; flaky pages corrupt their first [n] attempts).
    Counts the attempt. *)

val drop_flit : t -> bool
(** One RNG draw against [drop_rate]. *)

val corrupt_flit : t -> bool
(** One RNG draw against [corrupt_rate]. *)

val corrupt_mask : t -> int32
(** A random single-bit flip mask for a corrupted flit payload. *)

val hang_cycles : t -> inst:string -> int option
val trap_cycles : t -> inst:string -> int option

exception Injected of string
(** Raised by {!job_check} on an injected job failure, so it is
    distinguishable from a real compiler bug in traces. *)

val job_check : t -> job:string -> unit
(** Count one attempt of engine job [job] and raise {!Injected} if the
    spec makes this attempt fail. Counter-based (no RNG draw), so it
    stays deterministic under a parallel executor. *)
