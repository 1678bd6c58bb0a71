module Digest = Pld_util.Digest_lite
module T = Pld_telemetry.Telemetry

exception Store_error of string

(* 3: the payload digest is MD5, and store.index is a snapshot followed
   by an append-only journal. *)
let version = 3
let magic = "PLD-ARTIFACT"
let suffix = ".art"
let lock_name = "store.lock"
let index_name = "store.index"
let index_magic = "PLD-INDEX"
let quarantine_name = "store.quarantine"

(* Per-entry bookkeeping: the LRU stamp (a persisted logical clock, not
   wall time, so it is monotone across processes and restarts) and the
   file size, so the budget check never re-stats the directory. *)
type idx_entry = { mutable stamp : int; mutable bytes : int }

type kind_counters = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_puts : int;
  mutable c_evictions : int;
}

type t = {
  root : string;
  mu : Mutex.t;  (** intra-process exclusion, shared by the directory's handles *)
  lock_fd : Unix.file_descr;
      (** inter-process exclusion ([fcntl] on store.lock), shared likewise *)
  budget : int option;
  telemetry : T.t;
  keep_evidence : bool;  (** invalid entries move to store.quarantine/ instead of unlink *)
  mutable clock : int;
  index : (string, idx_entry) Hashtbl.t;  (** entry filename -> stamp/size *)
  mutable total : int;  (** sum of [index] bytes *)
  lru : string Pld_util.Pqueue.t;
      (** (stamp, name) pushed on every stamp change while a budget is
          set; a pair whose stamp the index no longer holds is stale *)
  mutable j_gen : int;  (** compaction generation the handle has applied *)
  mutable j_ino : int;  (** inode of the journal it has applied; -1: none valid *)
  mutable j_off : int;  (** bytes of it applied, always just past a newline *)
  mutable snapshot_rows : int;
  mutable rows : int;  (** records in the journal file, snapshot included *)
  pending : Buffer.t;  (** records of the current operation, appended at its end *)
  counters : (string * kind_counters) list ref;  (** per kind, first-use order *)
}

let dir t = t.root
let quarantine_dir t = Filename.concat t.root quarantine_name
let index_path t = Filename.concat t.root index_name

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let entry_path root ~kind ~key = Filename.concat root (kind ^ "-" ^ key ^ suffix)

(* A kind may not contain the [kind]-[key] separator ambiguity or path
   components; keys must be well-formed digests. *)
let check_names ~kind ~key =
  if kind = "" || String.exists (function 'a' .. 'z' | '0' .. '9' | '_' -> false | _ -> true) kind
  then invalid_arg (Printf.sprintf "Store: bad kind %S (lowercase/digits/_ only)" kind);
  if not (Digest.is_hex key) then invalid_arg (Printf.sprintf "Store: bad key %S" key)

(* Parse an entry filename back into (kind, key); None for foreign files. *)
let parse_name name =
  if not (Filename.check_suffix name suffix) then None
  else
    let stem = Filename.chop_suffix name suffix in
    match String.rindex_opt stem '-' with
    | Some i ->
        let kind = String.sub stem 0 i in
        let key = String.sub stem (i + 1) (String.length stem - i - 1) in
        if kind <> "" && Digest.is_hex key then Some (kind, key) else None
    | None -> None

let remove_file path = try Sys.remove path with Sys_error _ -> ()

let with_fd path flags f =
  let fd = Unix.openfile path (Unix.O_CLOEXEC :: flags) 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* Fills [buf] from [off] with up to [len] bytes of [fd]; fewer only at
   end of file. *)
let rec read_into fd buf off len =
  if len = 0 then 0
  else
    match Unix.read fd buf off len with
    | 0 -> 0
    | n -> n + read_into fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_into fd buf off len

(* ---------- telemetry ---------- *)

let counters_for t kind =
  match List.assoc_opt kind !(t.counters) with
  | Some c -> c
  | None ->
      let c = { c_hits = 0; c_misses = 0; c_puts = 0; c_evictions = 0 } in
      t.counters := !(t.counters) @ [ (kind, c) ];
      c

(* Registry handles are re-fetched per bump so a Telemetry.reset never
   leaves the store incrementing a stale counter. *)
let bump t kind which =
  let c = counters_for t kind in
  (match which with
  | `Hit -> c.c_hits <- c.c_hits + 1
  | `Miss -> c.c_misses <- c.c_misses + 1
  | `Put -> c.c_puts <- c.c_puts + 1
  | `Eviction -> c.c_evictions <- c.c_evictions + 1);
  let name =
    match which with
    | `Hit -> "hits"
    | `Miss -> "misses"
    | `Put -> "puts"
    | `Eviction -> "evictions"
  in
  T.incr (T.counter t.telemetry (Printf.sprintf "store.%s.%s" kind name))

(* Bytes moved by the store itself, index and entries apart. *)
let count_io t which n =
  let name =
    match which with
    | `Index_read -> "store.io.index_read_bytes"
    | `Index_written -> "store.io.index_written_bytes"
    | `Entry_read -> "store.io.entry_read_bytes"
    | `Entry_written -> "store.io.entry_written_bytes"
  in
  if n > 0 then T.incr ~by:n (T.counter t.telemetry name)

let publish_gauges t =
  T.set_gauge (T.gauge t.telemetry "store.bytes") (float_of_int t.total);
  T.set_gauge (T.gauge t.telemetry "store.entries") (float_of_int (Hashtbl.length t.index))

(* ---------- entries ---------- *)

(* Header line: "PLD-ARTIFACT v<version> <kind> <key> <payload-md5> <payload-bytes>\n"
   followed by the marshalled payload. The payload digest is MD5
   ([Stdlib.Digest]); the key is the FNV build digest the caller
   derived. *)
let header ~kind ~key ~payload =
  Printf.sprintf "%s v%d %s %s %s %d\n" magic version kind key
    (Stdlib.Digest.to_hex (Stdlib.Digest.string payload))
    (String.length payload)

(* A header is one short line; a file whose first [max_header] bytes
   hold no newline is not an entry. *)
let max_header = 256

type head = {
  size : int;  (** file bytes, by [fstat] *)
  payload_digest : string;
  payload_bytes : int;
  first : Bytes.t;  (** the bytes read so far ... *)
  start : int;  (** ... of which the payload starts here *)
}

(* Checks the header of the entry open on [fd] against the name it was
   found under, with one read of at most [max_header] bytes: [Some]
   iff magic, version, kind and key match and the file holds exactly
   the declared payload after the header line. *)
let read_header t fd ~kind ~key =
  let size = (Unix.fstat fd).Unix.st_size in
  let first = Bytes.create (min size max_header) in
  let got = read_into fd first 0 (Bytes.length first) in
  count_io t `Entry_read got;
  match Bytes.index_opt first '\n' with
  | Some nl when nl < got -> (
      match String.split_on_char ' ' (Bytes.sub_string first 0 nl) with
      | [ m; v; k; d; payload_digest; len ] -> (
          match int_of_string_opt len with
          | Some n
            when m = magic
                 && v = "v" ^ string_of_int version
                 && k = kind && Digest.equal d key
                 && size - (nl + 1) = n ->
              Some { size; payload_digest; payload_bytes = n; first = Bytes.sub first 0 got; start = nl + 1 }
          | _ -> None)
      | _ -> None)
  | _ -> None

(* The header check [open_] runs on every entry: the file size if the
   header is valid. *)
let header_valid t path ~kind ~key =
  with_fd path [ Unix.O_RDONLY ] (fun fd ->
      Option.map (fun h -> h.size) (read_header t fd ~kind ~key))

(* The payload and the file size if and only if the header checks out
   and the payload matches its digest, so a flipped bit anywhere is
   caught. *)
let read_valid t path ~kind ~key =
  with_fd path [ Unix.O_RDONLY ] (fun fd ->
      match read_header t fd ~kind ~key with
      | None -> None
      | Some h ->
          let payload = Bytes.create h.payload_bytes in
          let have = Bytes.length h.first - h.start in
          Bytes.blit h.first h.start payload 0 have;
          let rest = read_into fd payload have (h.payload_bytes - have) in
          count_io t `Entry_read rest;
          if
            have + rest = h.payload_bytes
            && String.equal (Stdlib.Digest.to_hex (Stdlib.Digest.bytes payload)) h.payload_digest
          then Some (payload, h.size)
          else None)

(* ---------- the in-memory index ----------

   Every change goes through [set_entry]/[remove_entry], which keep the
   byte total and the LRU heap in step with the table. *)

let lru_push t stamp name =
  if t.budget <> None then begin
    (* Stale pairs pile up as entries are touched; rebuild from the
       table once they outnumber the live ones. *)
    if Pld_util.Pqueue.size t.lru > (2 * Hashtbl.length t.index) + 64 then begin
      Pld_util.Pqueue.clear t.lru;
      Hashtbl.iter (fun n e -> Pld_util.Pqueue.push t.lru (float_of_int e.stamp) n) t.index
    end;
    Pld_util.Pqueue.push t.lru (float_of_int stamp) name
  end

(* Stamps merge by max, so records applied in any order agree. *)
let set_entry t name ~stamp ~bytes =
  t.clock <- max t.clock stamp;
  match Hashtbl.find_opt t.index name with
  | Some e ->
      t.total <- t.total - e.bytes + bytes;
      e.bytes <- bytes;
      if stamp > e.stamp then begin
        e.stamp <- stamp;
        lru_push t stamp name
      end
  | None ->
      t.total <- t.total + bytes;
      Hashtbl.replace t.index name { stamp; bytes };
      lru_push t stamp name

let remove_entry t name =
  match Hashtbl.find_opt t.index name with
  | Some e ->
      t.total <- t.total - e.bytes;
      Hashtbl.remove t.index name
  | None -> ()

let reset_index t =
  Hashtbl.reset t.index;
  t.total <- 0;
  Pld_util.Pqueue.clear t.lru

(* ---------- the access journal ----------

   store.index is a header line "PLD-INDEX v<version> <clock> <rows>",
   a snapshot of [rows] records, then records appended one operation
   at a time:

     "+ <name> <stamp> <bytes>"   the entry is live with this stamp
     "- <name>"                   the entry is gone

   Appends happen under the fcntl lock with O_APPEND, so records never
   interleave. A record counts only once its newline is on disk: a
   torn last line (a writer killed mid-append, a half line written by
   hand) is never applied, and the next holder of the lock truncates it
   away so it cannot merge with the record appended after it. A missing
   or unparseable index is an empty one — the entries themselves are
   the ground truth; the index only orders them. *)

let apply_record t line =
  match String.split_on_char ' ' line with
  | [ "+"; name; stamp; bytes ] -> (
      match (int_of_string_opt stamp, int_of_string_opt bytes) with
      | Some stamp, Some bytes when parse_name name <> None -> set_entry t name ~stamp ~bytes
      | _ -> ())
  | [ "-"; name ] -> remove_entry t name
  | _ -> ()

(* Applies the complete lines of [chunk], the journal bytes from the
   handle's offset on, and advances the offset past them. Bytes after
   the last newline are a torn record: truncated, never applied. *)
let apply_chunk t chunk =
  let complete = match String.rindex_opt chunk '\n' with Some i -> i + 1 | None -> 0 in
  let rec go pos =
    if pos < complete then begin
      let nl = String.index_from chunk pos '\n' in
      apply_record t (String.sub chunk pos (nl - pos));
      t.rows <- t.rows + 1;
      go (nl + 1)
    end
  in
  go 0;
  t.j_off <- t.j_off + complete;
  if complete < String.length chunk then
    try Unix.truncate (index_path t) t.j_off with Unix.Unix_error _ -> t.j_ino <- -1

let read_journal t fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let buf = Bytes.create len in
  let got = read_into fd buf 0 len in
  count_io t `Index_read got;
  Bytes.sub_string buf 0 got

(* Rereads the whole journal into a fresh index; a missing file or a
   bad header leaves the index as it is and marks the journal for
   rewriting ([j_ino = -1]). *)
let reload t ~gen =
  t.j_ino <- -1;
  match with_fd (index_path t) [ Unix.O_RDONLY ] (fun fd ->
            let st = Unix.fstat fd in
            (st.Unix.st_ino, read_journal t fd ~off:0 ~len:st.Unix.st_size)) with
  | exception Unix.Unix_error _ -> ()
  | ino, data -> (
      let nl = Option.value ~default:(String.length data) (String.index_opt data '\n') in
      match String.split_on_char ' ' (String.sub data 0 nl) with
      | [ m; v; clock; rows ] when m = index_magic && v = "v" ^ string_of_int version -> (
          match (int_of_string_opt clock, int_of_string_opt rows) with
          | Some clock, Some rows when nl < String.length data ->
              reset_index t;
              t.clock <- max t.clock clock;
              t.j_gen <- gen;
              t.j_ino <- ino;
              t.j_off <- nl + 1;
              t.snapshot_rows <- rows;
              t.rows <- 0;
              apply_chunk t (String.sub data (nl + 1) (String.length data - nl - 1))
          | _ -> ())
      | _ -> ())

(* Brings the index up to date with the journal: one [fstat] and one
   [stat] when nothing changed, otherwise a read of only the bytes past
   the handle's offset. Compaction swaps in a new file whose inode the
   file system may have handed out before, so the inode alone cannot
   show a swap; each compaction also grows store.lock by one byte, and
   a handle that sees a new size there rereads the journal whole. *)
let catch_up t =
  let gen = (Unix.fstat t.lock_fd).Unix.st_size in
  match Unix.stat (index_path t) with
  | st when gen = t.j_gen && st.Unix.st_ino = t.j_ino && st.Unix.st_size >= t.j_off -> (
      if st.Unix.st_size > t.j_off then
        try
          with_fd (index_path t) [ Unix.O_RDONLY ] (fun fd ->
              apply_chunk t (read_journal t fd ~off:t.j_off ~len:(st.Unix.st_size - t.j_off)))
        with Unix.Unix_error _ -> t.j_ino <- -1)
  | _ -> reload t ~gen
  | exception Unix.Unix_error _ -> t.j_ino <- -1

let record t name e = Printf.bprintf t.pending "+ %s %d %d\n" name e.stamp e.bytes

(* Rewrites store.index as a snapshot of the handle's index (unique
   temp file + rename, so a concurrent reader sees the old or the new
   file, never a torn one) and bumps the compaction generation. *)
let compact t =
  let path = index_path t in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Buffer.clear t.pending;
  Printf.bprintf t.pending "%s v%d %d %d\n" index_magic version t.clock (Hashtbl.length t.index);
  Hashtbl.iter (record t) t.index;
  let data = Buffer.contents t.pending in
  Buffer.clear t.pending;
  match
    let ino =
      with_fd tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] (fun fd ->
          ignore (Unix.write_substring fd data 0 (String.length data));
          (Unix.fstat fd).Unix.st_ino)
    in
    (* The generation moves first: a handle that sees the new file
       then also sees the new generation. *)
    let gen = (Unix.fstat t.lock_fd).Unix.st_size + 1 in
    Unix.ftruncate t.lock_fd gen;
    Unix.rename tmp path;
    (ino, gen)
  with
  | exception Unix.Unix_error (e, _, _) ->
      remove_file tmp;
      raise (Store_error (Printf.sprintf "cannot write %s: %s" path (Unix.error_message e)))
  | ino, gen ->
      count_io t `Index_written (String.length data);
      t.j_gen <- gen;
      t.j_ino <- ino;
      t.j_off <- String.length data;
      t.snapshot_rows <- Hashtbl.length t.index;
      t.rows <- t.snapshot_rows

(* Appends the operation's records in one write, or rewrites the index
   whole when there is no valid journal to append to. *)
let flush t =
  if t.j_ino < 0 then compact t
  else if Buffer.length t.pending > 0 then begin
    let data = Buffer.contents t.pending in
    Buffer.clear t.pending;
    (try
       with_fd (index_path t) [ Unix.O_WRONLY; Unix.O_APPEND ] (fun fd ->
           ignore (Unix.write_substring fd data 0 (String.length data)))
     with Unix.Unix_error (e, _, _) ->
       raise (Store_error (Printf.sprintf "cannot append to %s: %s" (index_path t) (Unix.error_message e))));
    count_io t `Index_written (String.length data);
    t.j_off <- t.j_off + String.length data;
    t.rows <- t.rows + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 data
  end

(* [open_] compacts once the journal holds more than [compact_factor]
   records per snapshot row (64 rows of slack keep a small store from
   being rewritten on every open). Replaying the journal then costs at
   most [1 + compact_factor] snapshot reads, the same order as the
   header walk [open_] does anyway, and each rewrite is paid for by at
   least [compact_factor] appends per row it writes. *)
let compact_factor = 4

let journal_outgrown t = t.rows - t.snapshot_rows > compact_factor * (t.snapshot_rows + 64)

(* ---------- locking ----------

   Two layers: the directory's mutex serializes the process's domains
   and handles, then an fcntl record lock on store.lock serializes
   processes. fcntl locks are per-process, so the mutex must be
   outermost — without it two domains would both "hold" the file lock.
   Every operation starts by catching up with the journal and ends by
   appending its records. *)

(* The process's one (mutex, fd) pair per store.lock inode, shared by
   every handle on that directory, so two handles exclude each other as
   two processes do. Closing any fd on a file drops all of the process's
   fcntl locks on it, including one another handle holds mid-operation,
   so these fds are never closed: a process opens each lock file once
   (O_CLOEXEC keeps them out of exec'd children). An open fd also keeps
   its inode allocated, so a key cannot be reused by a new file. *)
let locks : (int * int, Mutex.t * Unix.file_descr) Hashtbl.t = Hashtbl.create 4
let locks_mu = Mutex.create ()

let shared_lock dir =
  let path = Filename.concat dir lock_name in
  let key (st : Unix.stats) = (st.Unix.st_dev, st.Unix.st_ino) in
  Mutex.protect locks_mu (fun () ->
      match Hashtbl.find_opt locks (key (Unix.stat path)) with
      | Some l -> l
      | None | (exception Unix.Unix_error (Unix.ENOENT, _, _)) ->
          let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
          (* Should the path have moved between stat and open, an entry
             may exist already: it wins, and [fd] stays open. *)
          let k = key (Unix.fstat fd) in
          if not (Hashtbl.mem locks k) then Hashtbl.replace locks k (Mutex.create (), fd);
          Hashtbl.find locks k)

let rec lockf_retry fd op =
  try Unix.lockf fd op 0 with Unix.Unix_error (Unix.EINTR, _, _) -> lockf_retry fd op

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      lockf_retry t.lock_fd Unix.F_LOCK;
      Fun.protect
        ~finally:(fun () ->
          try Unix.lockf t.lock_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
        (fun () ->
          catch_up t;
          match f () with
          | v ->
              flush t;
              v
          | exception e ->
              (try flush t with Store_error _ -> ());
              raise e))

(* ---------- index changes ---------- *)

let stamp t name ~bytes =
  t.clock <- t.clock + 1;
  set_entry t name ~stamp:t.clock ~bytes;
  record t name (Hashtbl.find t.index name)

let forget t name =
  if Hashtbl.mem t.index name then begin
    remove_entry t name;
    Printf.bprintf t.pending "- %s\n" name
  end

(* ---------- eviction ---------- *)

let drop_entry t name =
  remove_file (Filename.concat t.root name);
  forget t name;
  match parse_name name with Some (kind, _) -> bump t kind `Eviction | None -> ()

(* Move a failed-validation entry aside instead of destroying it: the
   next open (or a human) can autopsy the torn write, and the store
   itself sees a clean miss. Quarantined files never collide — a
   numeric suffix disambiguates repeat offenders. *)
let quarantine_entry t name =
  let qdir = quarantine_dir t in
  (try mkdir_p qdir with Unix.Unix_error _ -> ());
  let src = Filename.concat t.root name in
  let dst =
    let base = Filename.concat qdir name in
    if not (Sys.file_exists base) then base
    else
      let rec pick n =
        let cand = Printf.sprintf "%s.%d" base n in
        if Sys.file_exists cand then pick (n + 1) else cand
      in
      pick 1
  in
  (try Sys.rename src dst with Sys_error _ -> remove_file src);
  forget t name;
  T.incr (T.counter t.telemetry "store.quarantined")

(* Invalid entries leave the live set either way; [keep_evidence]
   decides whether the bytes survive for the post-mortem. *)
let discard_entry t name =
  if t.keep_evidence then quarantine_entry t name else drop_entry t name

(* The least recently used entry other than [keep], off the LRU heap. *)
let rec lru_victim t ~keep =
  match Pld_util.Pqueue.pop t.lru with
  | None -> None
  | Some (s, name) -> (
      match Hashtbl.find_opt t.index name with
      | Some e when float_of_int e.stamp = s ->
          if name <> keep then Some name
          else
            let v = lru_victim t ~keep in
            Pld_util.Pqueue.push t.lru s name;
            v
      | _ -> lru_victim t ~keep)

(* Evict least-recently-used entries until the byte total fits the
   budget. [keep] (the entry just written) is never its own victim, so
   one oversized artifact parks at the budget instead of thrashing. *)
let enforce_budget t ~keep =
  match t.budget with
  | None -> ()
  | Some budget ->
      let rec go () =
        if t.total > budget then
          match lru_victim t ~keep with
          | Some name ->
              drop_entry t name;
              go ()
          | None -> ()
      in
      go ()

(* ---------- the directory walk ---------- *)

let readdir t = Array.to_list (try Sys.readdir t.root with Sys_error _ -> [||])

(* The one pass over the directory, run under the lock by [open_] and
   [scrub]: orphaned temp files from a crash mid-serialize go, and
   every [.art] file is checked — a malformed name fails outright, a
   well-named entry fails when [valid] (which returns the file size)
   rejects it or cannot be read. Failures go to [fail]; survivors the
   journal never recorded (e.g. a writer died between its rename and
   its append) are adopted at stamp 0, so LRU pressure reaches them
   first; index rows with no surviving entry are dropped. Returns the
   number of [.art] files scanned and of those that failed. *)
let walk t ~valid ~fail =
  let live = Hashtbl.create 64 in
  let scanned = ref 0 and failed = ref 0 in
  List.iter
    (fun name ->
      let path = Filename.concat t.root name in
      if Filename.check_suffix name ".tmp" then remove_file path
      else if Filename.check_suffix name suffix then begin
        incr scanned;
        let size =
          match parse_name name with
          | Some (kind, key) -> ( try valid t path ~kind ~key with Unix.Unix_error _ -> None)
          | None -> None
        in
        match size with
        | Some bytes ->
            Hashtbl.replace live name ();
            if not (Hashtbl.mem t.index name) then begin
              set_entry t name ~stamp:0 ~bytes;
              record t name (Hashtbl.find t.index name)
            end
        | None ->
            incr failed;
            fail t name
      end)
    (readdir t);
  let gone = Hashtbl.fold (fun name _ acc -> if Hashtbl.mem live name then acc else name :: acc) t.index [] in
  List.iter (forget t) gone;
  (!scanned, !failed)

(* ---------- open ---------- *)

let open_ ?max_bytes ?(quarantine = false) ?(telemetry = T.default) ~dir () =
  (try mkdir_p dir with Unix.Unix_error (e, _, _) ->
    raise (Store_error (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e))));
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Store_error (Printf.sprintf "cannot create %s" dir));
  let mu, lock_fd =
    try shared_lock dir
    with Unix.Unix_error (e, _, _) ->
      raise (Store_error (Printf.sprintf "cannot open %s/%s: %s" dir lock_name (Unix.error_message e)))
  in
  let t =
    {
      root = dir;
      mu;
      lock_fd;
      budget = max_bytes;
      telemetry;
      keep_evidence = quarantine;
      clock = 0;
      index = Hashtbl.create 64;
      total = 0;
      lru = Pld_util.Pqueue.create ();
      j_gen = -1;
      j_ino = -1;
      j_off = 0;
      snapshot_rows = 0;
      rows = 0;
      pending = Buffer.create 256;
      counters = ref [];
    }
  in
  with_lock t (fun () ->
      ignore (walk t ~valid:header_valid ~fail:discard_entry);
      enforce_budget t ~keep:"";
      if journal_outgrown t then compact t;
      publish_gauges t);
  t

(* ---------- operations ---------- *)

let find (type a) t ~kind ~key : a option =
  check_names ~kind ~key;
  with_lock t (fun () ->
      let name = kind ^ "-" ^ key ^ suffix in
      match read_valid t (entry_path t.root ~kind ~key) ~kind ~key with
      | exception Unix.Unix_error _ ->
          (* No entry file (or an unreadable one): a plain miss. *)
          forget t name;
          bump t kind `Miss;
          None
      | valid -> (
          match Option.map (fun (p, bytes) -> ((Marshal.from_bytes p 0 : a), bytes)) valid with
          | Some (v, bytes) ->
              bump t kind `Hit;
              stamp t name ~bytes;
              Some v
          | None | (exception _) ->
              (* Failed validation: evict, then miss. *)
              discard_entry t name;
              publish_gauges t;
              bump t kind `Miss;
              None))

let put t ~kind ~key v =
  check_names ~kind ~key;
  let payload = Marshal.to_string v [] in
  let head = header ~kind ~key ~payload in
  with_lock t (fun () ->
      let name = kind ^ "-" ^ key ^ suffix in
      let path = entry_path t.root ~kind ~key in
      (* A unique temp name per process, so two writers racing on one
         key never scribble on each other's temp file; the rename is
         last-writer-wins over identical content. *)
      let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
      (try
         let oc = open_out_bin tmp in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () ->
             output_string oc head;
             output_string oc payload)
       with Sys_error e -> raise (Store_error e));
      (try Sys.rename tmp path with Sys_error e -> remove_file tmp; raise (Store_error e));
      let bytes = String.length head + String.length payload in
      count_io t `Entry_written bytes;
      stamp t name ~bytes;
      bump t kind `Put;
      enforce_budget t ~keep:name;
      publish_gauges t)

let entries t =
  with_lock t (fun () ->
      List.filter_map parse_name (readdir t))

let count t = List.length (entries t)

(* ---------- scrub ---------- *)

type scrub_report = {
  sc_scanned : int;
  sc_ok : int;
  sc_quarantined : int;
  sc_quarantine_dir : string;
}

(* The full audit: the walk with every payload re-read and
   re-digested, failures quarantined regardless of the handle's open
   mode, so torn writes from a crashed peer degrade to clean misses
   instead of exceptions at some later find. *)
let scrub t =
  with_lock t (fun () ->
      let scanned, failed =
        walk t
          ~valid:(fun t path ~kind ~key -> Option.map snd (read_valid t path ~kind ~key))
          ~fail:quarantine_entry
      in
      publish_gauges t;
      {
        sc_scanned = scanned;
        sc_ok = scanned - failed;
        sc_quarantined = failed;
        sc_quarantine_dir = quarantine_dir t;
      })

let render_scrub r =
  Printf.sprintf "scrub: %d scanned, %d ok, %d quarantined%s" r.sc_scanned r.sc_ok r.sc_quarantined
    (if r.sc_quarantined > 0 then " -> " ^ r.sc_quarantine_dir else "")

(* ---------- statistics ---------- *)

type kind_stats = {
  ks_kind : string;
  ks_entries : int;
  ks_bytes : int;
  ks_hits : int;
  ks_misses : int;
  ks_puts : int;
  ks_evictions : int;
}

type stats = { s_entries : int; s_bytes : int; s_kinds : kind_stats list }

let stats t =
  with_lock t (fun () ->
      (* Index rows grouped by kind; counter rows for kinds that have
         traffic but no surviving entries still show up. *)
      let sizes = Hashtbl.create 8 in
      Hashtbl.iter
        (fun name e ->
          match parse_name name with
          | Some (kind, _) ->
              let n, b = Option.value ~default:(0, 0) (Hashtbl.find_opt sizes kind) in
              Hashtbl.replace sizes kind (n + 1, b + e.bytes)
          | None -> ())
        t.index;
      let kinds_in_counters = List.map fst !(t.counters) in
      let kinds_only_on_disk =
        Hashtbl.fold
          (fun kind _ acc -> if List.mem kind kinds_in_counters then acc else kind :: acc)
          sizes []
      in
      let kind_row kind =
        let n, b = Option.value ~default:(0, 0) (Hashtbl.find_opt sizes kind) in
        let c =
          Option.value
            ~default:{ c_hits = 0; c_misses = 0; c_puts = 0; c_evictions = 0 }
            (List.assoc_opt kind !(t.counters))
        in
        {
          ks_kind = kind;
          ks_entries = n;
          ks_bytes = b;
          ks_hits = c.c_hits;
          ks_misses = c.c_misses;
          ks_puts = c.c_puts;
          ks_evictions = c.c_evictions;
        }
      in
      let kinds = List.map kind_row (kinds_in_counters @ List.sort compare kinds_only_on_disk) in
      { s_entries = Hashtbl.length t.index; s_bytes = t.total; s_kinds = kinds })

let render_stats s =
  let row k =
    Printf.sprintf "%-10s %6d entries %10d B %6d hits %6d misses %5d puts %5d evictions"
      k.ks_kind k.ks_entries k.ks_bytes k.ks_hits k.ks_misses k.ks_puts k.ks_evictions
  in
  List.map row s.s_kinds
  @ [ Printf.sprintf "%-10s %6d entries %10d B" "total" s.s_entries s.s_bytes ]
