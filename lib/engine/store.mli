(** Content-addressed persistent artifact store.

    Compiled artifacts are serialized to digest-named files under a
    cache directory so a fresh [pldc] process after a one-operator edit
    recompiles exactly one page and reads everything else from disk —
    the separate-compilation payoff of §6 made durable across runs.

    Layout: one file per artifact, named [<kind>-<key>.art], where
    [kind] partitions the namespace by artifact type (a page bitstream
    can never be confused with a softcore image, whatever the key) and
    [key] is the content digest of the inputs that produced it. Next to
    the entries live two bookkeeping files: [store.lock], the
    inter-process lock, and [store.index], the access journal driving
    LRU eviction: a snapshot of every entry's stamp and size followed by
    one appended line per touch, put and eviction.

    Entries are never trusted: every file carries a versioned header
    with the payload's own digest (MD5; the key is the caller's FNV
    build digest), and anything that fails validation — wrong magic,
    older store version, truncation, digest mismatch — is evicted
    (deleted) and treated as a miss. Each check happens in one place:
    {!open_} reads headers only (at most {!max_header} bytes of each
    entry), {!find} digests the payload it is about to deserialize, and
    {!scrub} is the one full audit.

    {b Concurrency.} All operations are safe from multiple domains and
    handles of one process (a mutex per directory) {e and} from
    multiple processes sharing one directory (an [fcntl] record lock on
    [store.lock] held for the duration of each operation). Entry writes
    are atomic (unique temp file + rename), so a reader never observes
    a partial entry; orphaned temp files left by a crash mid-serialize
    are swept on the next {!open_}. Journal lines are appended under the
    lock, and each handle applies only the lines added since its last
    operation, so an operation's index I/O does not grow with the
    store. A torn last line (a writer killed mid-append) is ignored and
    cut off. A process opens each directory's [store.lock] once and
    never closes it (closing any fd on it would drop the process's
    record locks), so opening many handles on one directory costs one
    file descriptor.

    {b Eviction.} With [max_bytes] set, every write re-checks the
    budget and evicts least-recently-used entries (by the journalled
    access stamps, so LRU order survives across processes and restarts)
    until the file-byte total fits. The entry just written is never its
    own victim. *)

type t

exception Store_error of string
(** Raised when the cache directory cannot be created or written. *)

val version : int
(** Current on-disk format version. Bump on any layout change; entries
    written by other versions are evicted on open. *)

val open_ :
  ?max_bytes:int ->
  ?quarantine:bool ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  dir:string ->
  unit ->
  t
(** Opens (creating if needed) the store rooted at [dir], sweeps
    orphaned [*.tmp] files and every entry whose header fails — wrong
    magic, other version, kind or key not matching the filename, file
    size not matching the declared payload length — and loads the
    access journal, compacting it into a fresh snapshot once it has
    outgrown the last one. Open reads no payload byte: a payload bit-flip
    survives it, and the {!find} that digests the payload (or a
    {!scrub}) takes the entry out of the live store. [max_bytes]
    (default: unbounded) is the LRU size budget over payload bytes.
    With [quarantine] (default [false]), entries failing validation —
    at open or at any later [find] — are moved into
    [store.quarantine/] instead of deleted, preserving the torn bytes
    for post-mortem while the live store sees a clean miss. [telemetry]
    (default {!Pld_telemetry.Telemetry.default}) receives the per-kind
    hit/miss/eviction/put counters ([store.<kind>.hits], ...), the
    [store.quarantined] counter, the byte counters
    [store.io.index_read_bytes], [store.io.index_written_bytes],
    [store.io.entry_read_bytes] and [store.io.entry_written_bytes], and
    the [store.bytes] / [store.entries] gauges. *)

val dir : t -> string

val max_header : int
(** The most bytes {!open_} reads of any one entry: its header line
    must fit in them. *)

val quarantine_dir : t -> string
(** Where quarantined entries land ([<dir>/store.quarantine]). The
    directory is created lazily on first quarantine. *)

val find : t -> kind:string -> key:Pld_util.Digest_lite.t -> 'a option
(** [find t ~kind ~key] checks the entry's header and payload digest
    and deserializes the stored artifact, or returns [None] on miss or
    eviction. A hit refreshes the entry's LRU stamp. The result
    type ['a] is whatever was [put] under this [kind]; callers must
    dedicate each kind to exactly one artifact type (the typed
    accessors in [Build] enforce this). *)

val put : t -> kind:string -> key:Pld_util.Digest_lite.t -> 'a -> unit
(** Serializes the artifact (atomically: unique temp file + rename),
    stamps it most-recently-used, and enforces the size budget. The
    value must be closure-free. *)

val entries : t -> (string * string) list
(** [(kind, key)] of every well-named entry currently on disk. *)

val count : t -> int
(** Number of entry files with well-formed names currently on disk —
    their contents are not checked. *)

(** {2 Scrub}

    The recovery half of crash tolerance: writes are atomic, but a
    SIGKILL between the rename and the journal append — or bit rot, or a
    truncating filesystem — can leave entries whose header no longer
    matches their payload. A scrub re-validates every entry on demand
    and quarantines the failures, so the worst a torn write can do is
    cost one cache miss. *)

type scrub_report = {
  sc_scanned : int;  (** entry files examined *)
  sc_ok : int;  (** entries whose header and payload digest check out *)
  sc_quarantined : int;  (** entries moved to [store.quarantine/] *)
  sc_quarantine_dir : string;
}

val scrub : t -> scrub_report
(** The full audit: the same directory walk as {!open_}, but every
    entry's payload is re-read and re-digested, under the store lock.
    Entries failing validation (and malformed [.art] names) move to
    [store.quarantine/] — regardless of the handle's [quarantine] open
    mode — and orphaned [*.tmp] files are deleted. Each quarantined
    entry bumps the [store.quarantined] telemetry counter. *)

val render_scrub : scrub_report -> string

(** {2 Statistics}

    Counters are cumulative over the handle's lifetime; sizes reflect
    the index (i.e. what is on disk now, as this handle last saw it). *)

type kind_stats = {
  ks_kind : string;
  ks_entries : int;  (** entries of this kind on disk *)
  ks_bytes : int;  (** file bytes of this kind on disk *)
  ks_hits : int;  (** [find] served from a valid entry *)
  ks_misses : int;  (** [find] that found nothing usable *)
  ks_puts : int;  (** artifacts written *)
  ks_evictions : int;
      (** entries this handle deleted — LRU budget victims plus
          validation failures *)
}

type stats = {
  s_entries : int;
  s_bytes : int;  (** file bytes on disk *)
  s_kinds : kind_stats list;  (** first-use order *)
}

val stats : t -> stats

val render_stats : stats -> string list
(** One aligned line per kind plus a totals line — what
    [pldd]'s stats endpoint and the tests print. *)
