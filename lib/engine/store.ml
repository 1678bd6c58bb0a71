module Digest = Pld_util.Digest_lite
module T = Pld_telemetry.Telemetry

exception Store_error of string

(* 2: wide values hold their raw pattern ([Value.W]) and -O0 call sites
   carry dtypes; both are marshalled inside entries. *)
let version = 2
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
  mu : Mutex.t;  (** intra-process exclusion *)
  lock_fd : Unix.file_descr;  (** inter-process exclusion ([fcntl] on store.lock) *)
  budget : int option;
  telemetry : T.t;
  keep_evidence : bool;  (** invalid entries move to store.quarantine/ instead of unlink *)
  mutable clock : int;
  index : (string, idx_entry) Hashtbl.t;  (** entry filename -> stamp/size *)
  counters : (string * kind_counters) list ref;  (** per kind, first-use order *)
}

let dir t = t.root
let max_bytes t = t.budget
let quarantine_dir t = Filename.concat t.root quarantine_name

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

(* Header line: "PLD-ARTIFACT v<version> <kind> <key> <payload-digest> <payload-bytes>\n"
   followed by the marshalled payload. *)
let header ~kind ~key ~payload =
  Printf.sprintf "%s v%d %s %s %s %d\n" magic version kind key (Digest.of_string payload)
    (String.length payload)

(* A header is one short line; a file whose first [max_header] bytes
   hold no newline is not an entry. *)
let max_header = 256

(* Reads and checks the header of the entry open on [ic] against the
   name it was found under: [Some (payload_digest, payload_bytes)] iff
   magic, version, kind and key match and the file holds exactly the
   declared payload after the header line. Consumes the header line
   only: no payload byte leaves the channel, and the only I/O is the
   channel's first buffer fill. *)
let read_header ic ~kind ~key =
  let line = Buffer.create 96 in
  let rec next_line () =
    if Buffer.length line >= max_header then None
    else
      match input_char ic with
      | '\n' -> Some (Buffer.contents line)
      | c ->
          Buffer.add_char line c;
          next_line ()
      | exception End_of_file -> None
  in
  match Option.map (String.split_on_char ' ') (next_line ()) with
  | Some [ m; v; k; d; payload_digest; len ] -> (
      match int_of_string_opt len with
      | Some n
        when m = magic
             && v = "v" ^ string_of_int version
             && k = kind && Digest.equal d key
             && in_channel_length ic - pos_in ic = n ->
          Some (payload_digest, n)
      | _ -> None)
  | _ -> None

let with_entry path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

(* The header check [open_] runs on every entry. *)
let header_valid path ~kind ~key = with_entry path (fun ic -> read_header ic ~kind ~key <> None)

(* The payload if and only if the header checks out and the payload
   matches its digest, so a flipped bit anywhere is caught. *)
let read_valid path ~kind ~key =
  with_entry path (fun ic ->
      match read_header ic ~kind ~key with
      | Some (payload_digest, n) ->
          (match really_input_string ic n with
          | payload when Digest.equal (Digest.of_string payload) payload_digest -> Some payload
          | _ | (exception End_of_file) -> None)
      | None -> None)

let remove_file path = try Sys.remove path with Sys_error _ -> ()

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

(* ---------- per-kind counters & telemetry ---------- *)

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

let total_bytes t = Hashtbl.fold (fun _ e acc -> acc + e.bytes) t.index 0

let publish_gauges t =
  T.set_gauge (T.gauge t.telemetry "store.bytes") (float_of_int (total_bytes t));
  T.set_gauge (T.gauge t.telemetry "store.entries") (float_of_int (Hashtbl.length t.index))

(* ---------- access-time index ---------- *)

(* "PLD-INDEX v1 <clock>" then one "<name> <stamp> <bytes>" per entry.
   Always written atomically (unique temp + rename), so a concurrent
   reader sees either the old or the new index, never a torn one. A
   missing or unparseable index is an empty one — the entries
   themselves are the ground truth; the index only orders them. *)
let load_index_file root =
  let path = Filename.concat root index_name in
  match open_in_bin path with
  | exception Sys_error _ -> (0, [])
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> (0, [])
          | first -> (
              match String.split_on_char ' ' first with
              | [ m; v; clk ]
                when m = index_magic && v = "v" ^ string_of_int version ->
                  let clock = Option.value ~default:0 (int_of_string_opt clk) in
                  let entries = ref [] in
                  (try
                     while true do
                       match String.split_on_char ' ' (input_line ic) with
                       | [ name; stamp; bytes ] -> (
                           match (int_of_string_opt stamp, int_of_string_opt bytes) with
                           | Some s, Some b -> entries := (name, s, b) :: !entries
                           | _ -> ())
                       | _ -> ()
                     done
                   with End_of_file -> ());
                  (clock, List.rev !entries)
              | _ -> (0, [])))

let save_index t =
  let path = Filename.concat t.root index_name in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s v%d %d\n" index_magic version t.clock);
  Hashtbl.iter
    (fun name e -> Buffer.add_string buf (Printf.sprintf "%s %d %d\n" name e.stamp e.bytes))
    t.index;
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc (Buffer.contents buf))
   with Sys_error e -> raise (Store_error e));
  try Sys.rename tmp path with Sys_error e -> remove_file tmp; raise (Store_error e)

(* Merge the on-disk index into memory (another process may have bumped
   stamps or added entries since we last looked). Stamps merge by max;
   the clock never goes backwards. Entries we know that the disk index
   does not are kept — their files speak for themselves. *)
let reload_index t =
  let clock, entries = load_index_file t.root in
  t.clock <- max t.clock clock;
  List.iter
    (fun (name, stamp, bytes) ->
      match Hashtbl.find_opt t.index name with
      | Some e ->
          e.stamp <- max e.stamp stamp;
          if bytes > 0 then e.bytes <- bytes
      | None -> Hashtbl.replace t.index name { stamp; bytes })
    entries;
  t.clock <- Hashtbl.fold (fun _ e acc -> max acc e.stamp) t.index t.clock

(* ---------- locking ----------

   Two layers: the handle mutex serializes the process's domains, then
   an fcntl record lock on store.lock serializes processes. fcntl locks
   are per-process, so the mutex must be outermost — without it two
   domains would both "hold" the file lock. *)

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
          reload_index t;
          f ()))

(* ---------- eviction ---------- *)

let drop_entry t name =
  remove_file (Filename.concat t.root name);
  Hashtbl.remove t.index name;
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
  Hashtbl.remove t.index name;
  T.incr (T.counter t.telemetry "store.quarantined")

(* Invalid entries leave the live set either way; [keep_evidence]
   decides whether the bytes survive for the post-mortem. *)
let discard_entry t name =
  if t.keep_evidence then quarantine_entry t name else drop_entry t name

(* Evict least-recently-used entries until the byte total fits the
   budget. [keep] (the entry just written) is never its own victim, so
   one oversized artifact parks at the budget instead of thrashing. *)
let enforce_budget t ~keep =
  match t.budget with
  | None -> ()
  | Some budget ->
      let victim () =
        Hashtbl.fold
          (fun name e acc ->
            if name = keep then acc
            else
              match acc with
              | Some (_, best) when best.stamp <= e.stamp -> acc
              | _ -> Some (name, e))
          t.index None
      in
      let rec go () =
        if total_bytes t > budget then
          match victim () with
          | Some (name, _) ->
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
   well-named entry fails when [valid] rejects it or cannot be read.
   Failures go to [fail]; survivors the index never saw (e.g. the index
   was lost) are adopted as oldest, so LRU pressure reaches them first;
   index rows with no surviving entry are dropped. Returns the number
   of [.art] files scanned and of those that failed. *)
let walk t ~valid ~fail =
  let live = Hashtbl.create 64 in
  let scanned = ref 0 and failed = ref 0 in
  List.iter
    (fun name ->
      let path = Filename.concat t.root name in
      if Filename.check_suffix name ".tmp" then remove_file path
      else if Filename.check_suffix name suffix then begin
        incr scanned;
        let ok =
          match parse_name name with
          | Some (kind, key) -> ( try valid path ~kind ~key with Sys_error _ -> false)
          | None -> false
        in
        if ok then begin
          Hashtbl.replace live name ();
          if not (Hashtbl.mem t.index name) then
            Hashtbl.replace t.index name
              { stamp = 0; bytes = (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0) }
        end
        else begin
          incr failed;
          fail t name
        end
      end)
    (readdir t);
  Hashtbl.filter_map_inplace (fun name e -> if Hashtbl.mem live name then Some e else None) t.index;
  (!scanned, !failed)

(* ---------- open ---------- *)

let open_ ?max_bytes ?(quarantine = false) ?(telemetry = T.default) ~dir () =
  (try mkdir_p dir with Unix.Unix_error (e, _, _) ->
    raise (Store_error (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e))));
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Store_error (Printf.sprintf "cannot create %s" dir));
  let lock_fd =
    try Unix.openfile (Filename.concat dir lock_name) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    with Unix.Unix_error (e, _, _) ->
      raise (Store_error (Printf.sprintf "cannot open %s/%s: %s" dir lock_name (Unix.error_message e)))
  in
  let t =
    {
      root = dir;
      mu = Mutex.create ();
      lock_fd;
      budget = max_bytes;
      telemetry;
      keep_evidence = quarantine;
      clock = 0;
      index = Hashtbl.create 64;
      counters = ref [];
    }
  in
  with_lock t (fun () ->
      ignore (walk t ~valid:header_valid ~fail:discard_entry);
      enforce_budget t ~keep:"";
      save_index t;
      publish_gauges t);
  t

(* ---------- operations ---------- *)

let touch t name =
  match Hashtbl.find_opt t.index name with
  | Some e ->
      t.clock <- t.clock + 1;
      e.stamp <- t.clock
  | None -> ()

let find (type a) t ~kind ~key : a option =
  check_names ~kind ~key;
  with_lock t (fun () ->
      let name = kind ^ "-" ^ key ^ suffix in
      match read_valid (entry_path t.root ~kind ~key) ~kind ~key with
      | exception Sys_error _ ->
          (* No entry file (or an unreadable one): a plain miss. *)
          Hashtbl.remove t.index name;
          bump t kind `Miss;
          None
      | payload -> (
          match Option.map (fun p -> (Marshal.from_string p 0 : a)) payload with
          | Some v ->
              bump t kind `Hit;
              touch t name;
              save_index t;
              Some v
          | None | (exception _) ->
              (* Failed validation: evict, then miss. *)
              discard_entry t name;
              save_index t;
              publish_gauges t;
              bump t kind `Miss;
              None))

let put t ~kind ~key v =
  check_names ~kind ~key;
  let payload = Marshal.to_string v [] in
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
             output_string oc (header ~kind ~key ~payload);
             output_string oc payload)
       with Sys_error e -> raise (Store_error e));
      (try Sys.rename tmp path with Sys_error e -> remove_file tmp; raise (Store_error e));
      let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
      Hashtbl.remove t.index name;
      t.clock <- t.clock + 1;
      Hashtbl.replace t.index name { stamp = t.clock; bytes };
      bump t kind `Put;
      enforce_budget t ~keep:name;
      save_index t;
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
        walk t ~valid:(fun path ~kind ~key -> read_valid path ~kind ~key <> None)
          ~fail:quarantine_entry
      in
      save_index t;
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

let clear t =
  with_lock t (fun () ->
      List.iter (fun name -> if parse_name name <> None then drop_entry t name) (readdir t);
      save_index t;
      publish_gauges t)

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
      {
        s_entries = Hashtbl.length t.index;
        s_bytes = total_bytes t;
        s_kinds = kinds;
      })

let render_stats s =
  let row k =
    Printf.sprintf "%-10s %6d entries %10d B %6d hits %6d misses %5d puts %5d evictions"
      k.ks_kind k.ks_entries k.ks_bytes k.ks_hits k.ks_misses k.ks_puts k.ks_evictions
  in
  List.map row s.s_kinds
  @ [ Printf.sprintf "%-10s %6d entries %10d B" "total" s.s_entries s.s_bytes ]
