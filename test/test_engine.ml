(* The build engine in isolation: content digests, the on-disk artifact
   store (including hostile inputs: corruption, truncation, stale
   versions), job-graph validation, the parallel executor, and the LPT
   cluster model. *)

module Digest = Pld_util.Digest_lite
module Store = Pld_engine.Store
module Jobgraph = Pld_engine.Jobgraph
module Executor = Pld_engine.Executor
module Makespan = Pld_engine.Makespan
module Domain_pool = Pld_engine.Domain_pool
module Telemetry = Pld_telemetry.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Each store test gets its own directory under the dune sandbox cwd,
   emptied up front so reruns are deterministic. *)
let fresh_dir name =
  let dir = ".test-store-" ^ name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let entry_file dir ~kind ~key = Filename.concat dir (kind ^ "-" ^ key ^ ".art")

(* ---------- digests ---------- *)

let test_digest_framing () =
  check_bool "length framing distinguishes regroupings" false
    (Digest.equal (Digest.of_parts [ "ab"; "c" ]) (Digest.of_parts [ "a"; "bc" ]));
  check_bool "empty list vs singleton empty" false
    (Digest.equal (Digest.of_parts []) (Digest.of_parts [ "" ]));
  check_string "deterministic" (Digest.of_parts [ "x"; "y" ]) (Digest.of_parts [ "x"; "y" ])

let test_digest_is_hex () =
  check_bool "real digest" true (Digest.is_hex (Digest.of_string "hello"));
  check_bool "too short" false (Digest.is_hex "abc123");
  check_bool "uppercase rejected" false (Digest.is_hex "ABCDEF0123456789");
  check_bool "non-hex rejected" false (Digest.is_hex "ghijklmnopqrstuv")

(* ---------- store ---------- *)

let test_store_roundtrip () =
  let dir = fresh_dir "roundtrip" in
  let t = Store.open_ ~dir () in
  let key = Digest.of_string "op source" in
  Store.put t ~kind:"page" ~key [ 1; 2; 3 ];
  Alcotest.(check (option (list int))) "find" (Some [ 1; 2; 3 ]) (Store.find t ~kind:"page" ~key);
  check_int "one entry" 1 (Store.count t);
  (* A fresh handle on the same directory sees the entry: persistence. *)
  let t2 = Store.open_ ~dir () in
  Alcotest.(check (option (list int))) "fresh handle" (Some [ 1; 2; 3 ])
    (Store.find t2 ~kind:"page" ~key)

let test_store_kind_partition () =
  let dir = fresh_dir "kinds" in
  let t = Store.open_ ~dir () in
  let key = Digest.of_string "same inputs" in
  Store.put t ~kind:"page" ~key "bitstream";
  Store.put t ~kind:"softcore" ~key "elf image";
  check_int "two entries under one key" 2 (Store.count t);
  Alcotest.(check (option string)) "page kind" (Some "bitstream") (Store.find t ~kind:"page" ~key);
  Alcotest.(check (option string)) "softcore kind" (Some "elf image")
    (Store.find t ~kind:"softcore" ~key)

let test_store_corruption_evicted () =
  let dir = fresh_dir "corrupt" in
  let t = Store.open_ ~dir () in
  let key = Digest.of_string "victim" in
  Store.put t ~kind:"page" ~key (String.make 64 'a');
  let path = entry_file dir ~kind:"page" ~key in
  (* Flip the last payload byte; the header's payload digest no longer
     matches, so the entry must be evicted, not returned. *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length data in
  let corrupted = String.sub data 0 (n - 1) ^ "b" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc corrupted);
  Alcotest.(check (option string)) "miss" None (Store.find t ~kind:"page" ~key);
  check_bool "file evicted" false (Sys.file_exists path)

let test_store_truncation_evicted () =
  let dir = fresh_dir "trunc" in
  let t = Store.open_ ~dir () in
  let key = Digest.of_string "victim" in
  Store.put t ~kind:"page" ~key (String.make 64 'a');
  let path = entry_file dir ~kind:"page" ~key in
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data - 8)));
  Alcotest.(check (option string)) "miss" None (Store.find t ~kind:"page" ~key);
  check_bool "file evicted" false (Sys.file_exists path)

let test_store_stale_version_swept () =
  let dir = fresh_dir "stale" in
  let t = Store.open_ ~dir () in
  let key = Digest.of_string "old" in
  Store.put t ~kind:"page" ~key "payload";
  (* Rewrite the header claiming a future format version. The magic +
     version prefix is part of the stable on-disk format, so spelling it
     out here is the point of the test. *)
  let path = entry_file dir ~kind:"page" ~key in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let prefix = Printf.sprintf "PLD-ARTIFACT v%d" Store.version in
  check_bool "entry starts with versioned magic" true
    (String.starts_with ~prefix data);
  let stale =
    Printf.sprintf "PLD-ARTIFACT v%d" (Store.version + 1)
    ^ String.sub data (String.length prefix) (String.length data - String.length prefix)
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc stale);
  (* Opening sweeps it; nothing of another version survives. *)
  let t2 = Store.open_ ~dir () in
  check_bool "swept on open" false (Sys.file_exists path);
  check_int "no entries" 0 (Store.count t2);
  ignore t

let test_store_foreign_art_swept () =
  let dir = fresh_dir "foreign" in
  ignore (Store.open_ ~dir ());
  let bogus = Filename.concat dir "page-nothexatall00.art" in
  Out_channel.with_open_bin bogus (fun oc -> Out_channel.output_string oc "garbage");
  ignore (Store.open_ ~dir ());
  check_bool "malformed name swept" false (Sys.file_exists bogus)

let test_store_bad_names_rejected () =
  let dir = fresh_dir "names" in
  let t = Store.open_ ~dir () in
  let key = Digest.of_string "k" in
  let expect_invalid f = match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Store.put t ~kind:"Page!" ~key 1);
  expect_invalid (fun () -> Store.put t ~kind:"" ~key 1);
  expect_invalid (fun () -> (Store.find t ~kind:"page" ~key:"not a digest" : int option))

let test_store_tmp_swept_on_open () =
  let dir = fresh_dir "tmpsweep" in
  let t = Store.open_ ~dir () in
  let key = Digest.of_string "kept" in
  Store.put t ~kind:"page" ~key "survivor";
  (* Orphans a crash mid-serialize would leave behind: a per-process
     temp next to a real entry name, and an unrelated temp. *)
  let orphan = Filename.concat dir "page-0123456789abcdef.art.4242.tmp" in
  let stray = Filename.concat dir "scratch.tmp" in
  List.iter
    (fun p -> Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc "half-written"))
    [ orphan; stray ];
  let t2 = Store.open_ ~dir () in
  check_bool "orphan temp swept" false (Sys.file_exists orphan);
  check_bool "stray temp swept" false (Sys.file_exists stray);
  Alcotest.(check (option string)) "valid entry survives the sweep" (Some "survivor")
    (Store.find t2 ~kind:"page" ~key);
  ignore t

(* ---------- store: LRU eviction ---------- *)

let k i = Digest.of_string (Printf.sprintf "key%d" i)

(* A [find] that only asks whether a valid page entry is there; like any
   hit it refreshes the entry's LRU stamp. *)
let present t key = (Store.find t ~kind:"page" ~key : string option) <> None

(* Entry file size for a given payload, measured rather than hard-coded
   so the budget arithmetic tracks the header format. *)
let entry_bytes payload =
  let t = Store.open_ ~dir:(fresh_dir "sizing") () in
  Store.put t ~kind:"page" ~key:(Digest.of_string "probe") payload;
  (Store.stats t).Store.s_bytes

let test_store_lru_eviction () =
  let payload = String.make 200 'p' in
  let e = entry_bytes payload in
  (* Budget holds exactly two same-sized entries. *)
  let t = Store.open_ ~dir:(fresh_dir "lru") ~max_bytes:((2 * e) + (e / 2)) () in
  Store.put t ~kind:"page" ~key:(k 1) payload;
  Store.put t ~kind:"page" ~key:(k 2) payload;
  check_int "both fit" 2 (Store.count t);
  (* Refresh k1, so k2 becomes the least recently used... *)
  Alcotest.(check (option string)) "hit refreshes" (Some payload)
    (Store.find t ~kind:"page" ~key:(k 1));
  (* ...and the third write evicts k2, not k1. *)
  Store.put t ~kind:"page" ~key:(k 3) payload;
  check_int "budget enforced" 2 (Store.count t);
  check_bool "least-recently-used evicted" false (present t (k 2));
  check_bool "refreshed entry survives" true (present t (k 1));
  check_bool "fresh write survives" true (present t (k 3))

let test_store_oversized_entry_kept () =
  let payload = String.make 400 'q' in
  let e = entry_bytes payload in
  (* Budget smaller than a single entry: the just-written artifact is
     never its own victim, so it parks at the budget. *)
  let t = Store.open_ ~dir:(fresh_dir "oversize") ~max_bytes:(e / 2) () in
  Store.put t ~kind:"page" ~key:(k 1) payload;
  check_int "oversized entry parked" 1 (Store.count t);
  Store.put t ~kind:"page" ~key:(k 2) payload;
  check_int "next write claims the slot" 1 (Store.count t);
  check_bool "previous entry evicted" false (present t (k 1));
  check_bool "new entry present" true (present t (k 2))

let test_store_lru_survives_reopen () =
  let payload = String.make 200 'r' in
  let e = entry_bytes payload in
  let dir = fresh_dir "lrupersist" in
  let t = Store.open_ ~dir () in
  Store.put t ~kind:"page" ~key:(k 1) payload;
  Store.put t ~kind:"page" ~key:(k 2) payload;
  (* Make k1 the most recently used; the stamp lands in store.index. *)
  check_bool "refresh hit" true (present t (k 1));
  (* A fresh handle with a one-entry budget must evict by the persisted
     order: k2 goes, the refreshed k1 stays. *)
  let t2 = Store.open_ ~dir ~max_bytes:(e + (e / 2)) () in
  check_int "one survivor" 1 (Store.count t2);
  check_bool "most-recently-used survives reopen" true (present t2 (k 1));
  check_bool "LRU victim evicted on open" false (present t2 (k 2))

let test_store_stats_and_telemetry () =
  let module T = Pld_telemetry.Telemetry in
  let tele = T.create () in
  let t = Store.open_ ~dir:(fresh_dir "stats") ~telemetry:tele () in
  Store.put t ~kind:"page" ~key:(k 1) "aaaa";
  Store.put t ~kind:"page" ~key:(k 2) "bbbb";
  Store.put t ~kind:"mono" ~key:(k 1) "cccc";
  Alcotest.(check (option string)) "hit" (Some "aaaa") (Store.find t ~kind:"page" ~key:(k 1));
  Alcotest.(check (option string)) "miss" None (Store.find t ~kind:"page" ~key:(k 9));
  let s = Store.stats t in
  check_int "entries" 3 s.Store.s_entries;
  check_bool "bytes counted" true (s.Store.s_bytes > 0);
  let of_kind kind = List.find (fun ks -> ks.Store.ks_kind = kind) s.Store.s_kinds in
  let page = of_kind "page" and mono = of_kind "mono" in
  check_int "page entries" 2 page.Store.ks_entries;
  check_int "page hits" 1 page.Store.ks_hits;
  check_int "page misses" 1 page.Store.ks_misses;
  check_int "page puts" 2 page.Store.ks_puts;
  check_int "mono puts" 1 mono.Store.ks_puts;
  check_int "mono misses" 0 mono.Store.ks_misses;
  (* The same counters land in the telemetry registry, per kind. *)
  check_int "tele page hits" 1 (T.counter_value tele "store.page.hits");
  check_int "tele page misses" 1 (T.counter_value tele "store.page.misses");
  check_int "tele page puts" 2 (T.counter_value tele "store.page.puts");
  check_int "tele mono puts" 1 (T.counter_value tele "store.mono.puts");
  Alcotest.(check (option (float 0.01))) "entries gauge" (Some 3.0)
    (T.gauge_value tele "store.entries");
  Alcotest.(check (option (float 0.01))) "bytes gauge" (Some (float_of_int s.Store.s_bytes))
    (T.gauge_value tele "store.bytes");
  (* render: one line per kind plus the totals line. *)
  check_int "render lines" 3 (List.length (Store.render_stats s))

(* ---------- store: cross-process concurrency ---------- *)

(* Two real processes hammer one directory with overlapping keys. The
   fcntl lock plus atomic temp-file renames must keep every entry
   intact: payloads encode their key, so a torn write or cross-wired
   rename shows up as a content mismatch, and a lost write as a miss. *)
let hammer_keys = 8

let hammer_payload key = "payload-for-" ^ key ^ String.make 64 'z'

let hammer_child dir rounds seed =
  let ok = ref true in
  (try
     let t = Store.open_ ~dir () in
     for i = 0 to rounds - 1 do
       let key = Digest.of_string (Printf.sprintf "shared%d" ((i + seed) mod hammer_keys)) in
       Store.put t ~kind:"page" ~key (hammer_payload key);
       match Store.find t ~kind:"page" ~key with
       | Some p when String.equal p (hammer_payload key) -> ()
       | Some _ | None -> ok := false
     done
   with _ -> ok := false);
  (* Skip at_exit (alcotest's reporters run in the parent only). *)
  if !ok then Unix._exit 0 else Unix._exit 1

let test_store_two_process_hammer () =
  let dir = fresh_dir "hammer" in
  ignore (Store.open_ ~dir ());
  let spawn seed =
    match Unix.fork () with 0 -> hammer_child dir 40 seed | pid -> pid
  in
  let pids = [ spawn 0; spawn 3 ] in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "child saw a corrupt or lost entry")
    pids;
  (* Every shared key reads back intact from a fresh handle. *)
  let t = Store.open_ ~dir () in
  check_int "all shared keys present" hammer_keys (Store.count t);
  for i = 0 to hammer_keys - 1 do
    let key = Digest.of_string (Printf.sprintf "shared%d" i) in
    Alcotest.(check (option string)) "intact" (Some (hammer_payload key))
      (Store.find t ~kind:"page" ~key)
  done

(* Handles in one process share the directory's lock: opening is not
   a per-handle file descriptor, and two handles exclude each other the
   way two processes do. *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_store_opens_share_one_lock_fd () =
  let dir = fresh_dir "fds" in
  let before = open_fds () in
  let handles = List.init 100 (fun _ -> Store.open_ ~dir ()) in
  check_bool "100 opens add at most one fd" true (open_fds () - before <= 1);
  check_int "all handles usable" 100 (List.length handles)

(* The writers run in a forked child: a process that has spawned a
   domain can no longer fork, and later tests do. *)
let test_store_two_handles_in_one_process () =
  let dir = fresh_dir "two-handles" in
  let writer t tag () =
    for i = 0 to 39 do
      let key = Digest.of_string (Printf.sprintf "%s%d" tag i) in
      Store.put t ~kind:"page" ~key (hammer_payload key)
    done
  in
  (match Unix.fork () with
  | 0 ->
      (try
         let a = Store.open_ ~dir () and b = Store.open_ ~dir () in
         let d = Domain.spawn (writer a "a") in
         writer b "b" ();
         Domain.join d;
         Unix._exit 0
       with _ -> Unix._exit 1)
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "writer child failed"));
  check_int "no index update lost" 80 (Store.count (Store.open_ ~dir ()))

(* ---------- store: crash recovery and scrub ---------- *)

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

(* Like [fresh_dir], but also clears store.quarantine/ left by a
   previous run. *)
let fresh_deep_dir name =
  let dir = ".test-store-" ^ name in
  if Sys.file_exists dir then rm_rf dir;
  dir

let damage_truncate path =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  let len = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (len / 2);
  Unix.close fd

let damage_flip_last_byte path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length data in
  let flipped = Char.chr (Char.code data.[n - 1] lxor 0x40) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (n - 1));
      Out_channel.output_char oc flipped)

let test_store_killed_mid_insert () =
  (* SIGKILL a child hammering [put]: atomic tmp+rename means the
     survivor may see a clean miss for the in-flight key, but never a
     torn entry — and a scrub must find nothing to quarantine. *)
  let dir = fresh_deep_dir "sigkill" in
  ignore (Store.open_ ~dir ());
  let anchor = Digest.of_string "anchor" in
  let payload i = Printf.sprintf "mid-%d-" i ^ String.make 2048 'x' in
  let r, w = Unix.pipe () in
  (match Unix.fork () with
  | 0 ->
      Unix.close r;
      let t = Store.open_ ~dir () in
      Store.put t ~kind:"page" ~key:anchor "anchor payload";
      ignore (Unix.write w (Bytes.of_string "!") 0 1);
      let i = ref 0 in
      while true do
        Store.put t ~kind:"page" ~key:(Digest.of_string (Printf.sprintf "mid%d" !i)) (payload !i);
        incr i
      done;
      Unix._exit 0
  | pid ->
      Unix.close w;
      (* Wait for the anchor write, let the hammer get going, then
         kill mid-stream. *)
      ignore (Unix.read r (Bytes.create 1) 0 1);
      Unix.close r;
      Unix.sleepf 0.02;
      Unix.kill pid Sys.sigkill;
      (match Unix.waitpid [] pid with
      | _, Unix.WSIGNALED s -> check_bool "child died by SIGKILL" true (s = Sys.sigkill)
      | _ -> Alcotest.fail "child exited instead of being killed"));
  let t = Store.open_ ~dir ~quarantine:true () in
  Alcotest.(check (option string)) "anchor intact" (Some "anchor payload")
    (Store.find t ~kind:"page" ~key:anchor);
  check_bool "child made progress" true (Store.count t >= 1);
  (* Every key the child may have been writing: old value or clean
     miss, never garbage. *)
  for i = 0 to 4095 do
    match (Store.find t ~kind:"page" ~key:(Digest.of_string (Printf.sprintf "mid%d" i)) : string option) with
    | Some v -> Alcotest.(check string) (Printf.sprintf "mid%d intact" i) (payload i) v
    | None -> ()
  done;
  let r = Store.scrub t in
  check_int "kill left no torn entries" 0 r.Store.sc_quarantined

let test_store_scrub_quarantines_exact_damage () =
  let module T = Pld_telemetry.Telemetry in
  let tele = T.create () in
  let dir = fresh_deep_dir "scrubunit" in
  (* Damage behind the live handle's back: the point here is that
     scrub finds it on demand. A reopen would sweep only the truncation
     (open checks headers); the bit-flip waits for a find or a scrub. *)
  let t = Store.open_ ~dir ~quarantine:true ~telemetry:tele () in
  let key i = Digest.of_string (Printf.sprintf "scrub%d" i) in
  for i = 0 to 3 do
    Store.put t ~kind:"page" ~key:(key i) (Printf.sprintf "payload %d" i)
  done;
  damage_truncate (entry_file dir ~kind:"page" ~key:(key 0));
  damage_flip_last_byte (entry_file dir ~kind:"page" ~key:(key 1));
  let r = Store.scrub t in
  check_int "all entries scanned" 4 r.Store.sc_scanned;
  check_int "survivors pass" 2 r.Store.sc_ok;
  check_int "exactly the damaged pair quarantined" 2 r.Store.sc_quarantined;
  check_int "telemetry agrees" 2 (T.counter_value tele "store.quarantined");
  check_int "evidence preserved" 2 (Array.length (Sys.readdir r.Store.sc_quarantine_dir));
  Alcotest.(check (option string)) "survivor reads" (Some "payload 2")
    (Store.find t ~kind:"page" ~key:(key 2));
  Alcotest.(check (option string)) "victim is a clean miss" None
    (Store.find t ~kind:"page" ~key:(key 0));
  check_int "count excludes quarantined" 2 (Store.count t);
  (* A second scrub finds nothing left to do. *)
  let r2 = Store.scrub t in
  check_int "scrub is idempotent" 0 r2.Store.sc_quarantined

(* Rewrite the header to claim the next format version; the file size
   is unchanged, so only the version check can reject it. *)
let damage_future_version path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let prefix = Printf.sprintf "PLD-ARTIFACT v%d" Store.version in
  let rest = String.sub data (String.length prefix) (String.length data - String.length prefix) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Printf.sprintf "PLD-ARTIFACT v%d%s" (Store.version + 1) rest))

let test_store_open_checks_headers_find_checks_payloads () =
  (* Each check on a stored byte happens in one place: open reads
     headers only, find digests the payload it deserializes, scrub
     audits everything. *)
  let dir = fresh_deep_dir "layers" in
  let key i = Digest.of_string (Printf.sprintf "layer%d" i) in
  let file i = entry_file dir ~kind:"page" ~key:(key i) in
  let t = Store.open_ ~dir () in
  for i = 0 to 3 do
    Store.put t ~kind:"page" ~key:(key i) (Printf.sprintf "payload %d" i)
  done;
  damage_flip_last_byte (file 0);
  damage_flip_last_byte (file 1);
  damage_truncate (file 2);
  damage_future_version (file 3);
  let t2 = Store.open_ ~dir () in
  check_bool "truncated entry swept at open" false (Sys.file_exists (file 2));
  check_bool "future-version entry swept at open" false (Sys.file_exists (file 3));
  check_bool "payload bit-flip survives open" true (Sys.file_exists (file 0));
  check_int "bit-flipped entries still counted" 2 (Store.count t2);
  Alcotest.(check (option string)) "find digests the payload" None
    (Store.find t2 ~kind:"page" ~key:(key 0));
  check_bool "find evicted it" false (Sys.file_exists (file 0));
  let r = Store.scrub t2 in
  check_int "scrub quarantines the second bit-flip" 1 r.Store.sc_quarantined;
  check_bool "its bytes are kept" true
    (Sys.file_exists (Filename.concat r.Store.sc_quarantine_dir (Filename.basename (file 1))));
  check_int "nothing left" 0 (Store.count t2)

let test_store_quarantine_mode_preserves_evidence () =
  (* In quarantine mode a corrupt entry found by [find] is moved aside
     for the post-mortem, not deleted (contrast
     [test_store_corruption_evicted]). *)
  let dir = fresh_deep_dir "evidence" in
  let t = Store.open_ ~dir ~quarantine:true () in
  let key = Digest.of_string "victim" in
  Store.put t ~kind:"page" ~key (String.make 64 'a');
  let path = entry_file dir ~kind:"page" ~key in
  damage_flip_last_byte path;
  Alcotest.(check (option string)) "miss" None (Store.find t ~kind:"page" ~key);
  check_bool "entry gone from the store" false (Sys.file_exists path);
  check_int "entry moved into quarantine" 1
    (Array.length (Sys.readdir (Store.quarantine_dir t)))

(* ---------- store: the access journal ---------- *)

let index_file dir = Filename.concat dir "store.index"
let index_size dir = (Unix.stat (index_file dir)).Unix.st_size

let append_raw path s =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc s)

let io tele name = Telemetry.counter_value tele ("store.io." ^ name)

(* Index bytes one operation reads and writes. *)
let index_io tele f =
  let r0 = io tele "index_read_bytes" and w0 = io tele "index_written_bytes" in
  f ();
  (io tele "index_read_bytes" - r0, io tele "index_written_bytes" - w0)

let test_store_op_cost_independent_of_size () =
  (* The same history at both sizes — 1000 puts, cycling over [n] keys
     — so the stamps the measured records carry have the same digits;
     only the number of entries differs. *)
  let costs n =
    let tele = Telemetry.create () in
    let t = Store.open_ ~dir:(fresh_dir (Printf.sprintf "opcost%d" n)) ~telemetry:tele () in
    for i = 0 to 999 do
      Store.put t ~kind:"page" ~key:(k (i mod n)) "payload"
    done;
    check_int "entries" n (Store.count t);
    let hit = index_io tele (fun () -> check_bool "hit" true (present t (k 0))) in
    let put = index_io tele (fun () -> Store.put t ~kind:"page" ~key:(k n) "payload") in
    (hit, put)
  in
  let (hit_r, hit_w), (put_r, put_w) = costs 10 in
  let (hit_r', hit_w'), (put_r', put_w') = costs 1000 in
  check_int "a hit reads no index bytes" 0 hit_r;
  check_bool "a hit appends one short record" true (hit_w > 0 && hit_w < 80);
  check_int "find hit: index bytes read, 10 vs 1000 entries" hit_r hit_r';
  check_int "find hit: index bytes written, 10 vs 1000 entries" hit_w hit_w';
  check_int "put: index bytes read, 10 vs 1000 entries" put_r put_r';
  check_int "put: index bytes written, 10 vs 1000 entries" put_w put_w'

let test_store_open_reads_headers_only () =
  let entries = 5 in
  let open_cost payload_bytes =
    let dir = fresh_dir (Printf.sprintf "opencost%d" payload_bytes) in
    let t = Store.open_ ~dir () in
    for i = 0 to entries - 1 do
      Store.put t ~kind:"page" ~key:(k i) (String.make payload_bytes 'o')
    done;
    let tele = Telemetry.create () in
    ignore (Store.open_ ~dir ~telemetry:tele ());
    io tele "entry_read_bytes"
  in
  let small = open_cost 1024 and large = open_cost (200 * 1024) in
  check_bool "1 KB payloads: at most max_header bytes per entry" true
    (small > 0 && small <= entries * Store.max_header);
  check_int "200 KB payloads read the same bytes as 1 KB ones" small large

let test_store_torn_journal_line_ignored () =
  let dir = fresh_dir "torn" in
  let payload = String.make 200 'j' in
  let e = entry_bytes payload in
  let t = Store.open_ ~dir () in
  List.iter (fun i -> Store.put t ~kind:"page" ~key:(k i) payload) [ 1; 2; 3 ];
  (* A half-written record that would make k1 the newest entry if it
     were applied: no newline, so it never counts. *)
  append_raw (index_file dir) (Printf.sprintf "+ page-%s.art 99 2" (k 1));
  let t = Store.open_ ~dir ~max_bytes:((3 * e) + (e / 2)) () in
  Store.put t ~kind:"page" ~key:(k 4) payload;
  check_bool "the torn stamp did not save k1" false
    (Sys.file_exists (entry_file dir ~kind:"page" ~key:(k 1)));
  (* k4's record, the first after the torn line, must start on a line
     of its own: a fresh handle sees k4 as the newest entry. *)
  let t2 = Store.open_ ~dir ~max_bytes:((2 * e) + (e / 2)) () in
  check_int "two survivors" 2 (Store.count t2);
  check_bool "the record after the torn line counts" true (present t2 (k 4));
  check_bool "k3 kept" true (present t2 (k 3));
  check_bool "k2 evicted" false (present t2 (k 2))

let test_store_unjournalled_entry_adopted () =
  (* k2's file was renamed into place, but its journal record never
     landed (the writer died between the two). *)
  let setup name =
    let dir = fresh_dir name in
    let payload = String.make 200 'u' in
    let t = Store.open_ ~dir () in
    Store.put t ~kind:"page" ~key:(k 1) payload;
    let before = index_size dir in
    Store.put t ~kind:"page" ~key:(k 2) payload;
    Unix.truncate (index_file dir) before;
    (dir, entry_bytes payload)
  in
  let dir, _ = setup "adopt" in
  let t = Store.open_ ~dir () in
  check_int "both entries live" 2 (Store.count t);
  Alcotest.(check (option string)) "find serves the adopted entry" (Some (String.make 200 'u'))
    (Store.find t ~kind:"page" ~key:(k 2));
  let dir, e = setup "adoptstamp" in
  let t = Store.open_ ~dir ~max_bytes:(e + (e / 2)) () in
  check_bool "adopted at stamp 0: first LRU victim" false (present t (k 2));
  check_bool "journalled entry kept" true (present t (k 1))

let test_store_lru_across_processes () =
  let dir = fresh_dir "lruproc" in
  let payload = String.make 200 'x' in
  let t = Store.open_ ~dir () in
  Store.put t ~kind:"page" ~key:(k 1) payload;
  Store.put t ~kind:"page" ~key:(k 2) payload;
  (* Another process refreshes k1 through its own handle. *)
  (match Unix.fork () with
  | 0 -> Unix._exit (if present (Store.open_ ~dir ()) (k 1) then 0 else 1)
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "child could not refresh k1"));
  let e = entry_bytes payload in
  let t2 = Store.open_ ~dir ~max_bytes:(e + (e / 2)) () in
  check_int "one survivor" 1 (Store.count t2);
  check_bool "the other process's refresh survives" true (present t2 (k 1));
  check_bool "k2 evicted" false (present t2 (k 2));
  ignore t

let test_store_killed_mid_append () =
  (* SIGKILL a child whose finds and puts append to the journal; the
     store must reopen, read back every entry, and take new records. *)
  let dir = fresh_deep_dir "sigappend" in
  ignore (Store.open_ ~dir ());
  let payload i = Printf.sprintf "%08d" i ^ String.make 256 'a' in
  let key i = Digest.of_string (Printf.sprintf "append%d" i) in
  let r, w = Unix.pipe () in
  (match Unix.fork () with
  | 0 ->
      Unix.close r;
      let t = Store.open_ ~dir () in
      for i = 0 to 3 do
        Store.put t ~kind:"page" ~key:(key i) (payload i)
      done;
      ignore (Unix.write w (Bytes.of_string "!") 0 1);
      let i = ref 4 in
      while true do
        ignore (Store.find t ~kind:"page" ~key:(key (!i mod 4)) : string option);
        if !i mod 8 = 0 then Store.put t ~kind:"page" ~key:(key !i) (payload !i);
        incr i
      done;
      Unix._exit 0
  | pid ->
      Unix.close w;
      ignore (Unix.read r (Bytes.create 1) 0 1);
      Unix.close r;
      Unix.sleepf 0.02;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid));
  let t = Store.open_ ~dir ~quarantine:true () in
  let index = In_channel.with_open_bin (index_file dir) In_channel.input_all in
  check_bool "journal ends on a whole line" true (index.[String.length index - 1] = '\n');
  let live = Store.entries t in
  check_bool "child's entries survive" true (List.length live >= 4);
  List.iter
    (fun (_, key) ->
      match (Store.find t ~kind:"page" ~key : string option) with
      | Some v -> check_int "entry reads back" (String.length (payload 0)) (String.length v)
      | None -> Alcotest.fail "entry did not read back")
    live;
  check_int "scrub finds nothing torn" 0 (Store.scrub t).Store.sc_quarantined;
  check_bool "refresh k0" true (present t (key 0));
  let e = entry_bytes (payload 0) in
  let t2 = Store.open_ ~dir ~max_bytes:(e + (e / 2)) () in
  check_bool "the record after the kill counts" true (present t2 (key 0));
  check_int "one survivor" 1 (Store.count t2)

(* ---------- job graphs ---------- *)

let const_node id v = Jobgraph.node ~id ~kind:"t" (fun _ -> v)

let diamond () =
  (* d = (a+1) + (a*2): a feeds b and c, which feed d. *)
  Jobgraph.make
    [
      Jobgraph.node ~id:"a" ~kind:"t" (fun _ -> 10);
      Jobgraph.node ~id:"b" ~kind:"t" ~deps:[ "a" ] (fun ctx -> ctx.Jobgraph.fetch "a" + 1);
      Jobgraph.node ~id:"c" ~kind:"t" ~deps:[ "a" ] (fun ctx -> ctx.Jobgraph.fetch "a" * 2);
      Jobgraph.node ~id:"d" ~kind:"t" ~deps:[ "b"; "c" ] (fun ctx ->
          ctx.Jobgraph.fetch "b" + ctx.Jobgraph.fetch "c");
    ]

let test_jobgraph_order () =
  let g = diamond () in
  check_int "size" 4 (Jobgraph.size g);
  let order = List.map Jobgraph.id (Jobgraph.order g) in
  let pos x = Option.get (List.find_index (String.equal x) order) in
  check_bool "a before b" true (pos "a" < pos "b");
  check_bool "a before c" true (pos "a" < pos "c");
  check_bool "b before d" true (pos "b" < pos "d");
  check_bool "c before d" true (pos "c" < pos "d");
  Alcotest.(check (list string)) "dependents of a" [ "b"; "c" ] (Jobgraph.dependents g "a")

let expect_invalid nodes =
  match Jobgraph.make nodes with
  | _ -> Alcotest.fail "expected Jobgraph.Invalid"
  | exception Jobgraph.Invalid _ -> ()

let test_jobgraph_duplicate_id () = expect_invalid [ const_node "x" 1; const_node "x" 2 ]

let test_jobgraph_unknown_dep () =
  expect_invalid [ Jobgraph.node ~id:"x" ~kind:"t" ~deps:[ "ghost" ] (fun _ -> 1) ]

let test_jobgraph_cycle () =
  expect_invalid
    [
      Jobgraph.node ~id:"x" ~kind:"t" ~deps:[ "y" ] (fun _ -> 1);
      Jobgraph.node ~id:"y" ~kind:"t" ~deps:[ "x" ] (fun _ -> 2);
    ]

let test_fetch_non_dependency_rejected () =
  let g =
    Jobgraph.make
      [
        const_node "a" 1;
        const_node "b" 2;
        (* c depends only on a but tries to read b — an undeclared edge
           the executor must refuse (it would race under parallelism). *)
        Jobgraph.node ~id:"c" ~kind:"t" ~deps:[ "a" ] (fun ctx -> ctx.Jobgraph.fetch "b");
      ]
  in
  match Executor.run ~workers:1 g with
  | _ -> Alcotest.fail "expected Jobgraph.Invalid"
  | exception Jobgraph.Invalid _ -> ()

(* ---------- executor ---------- *)

let test_executor_sequential () =
  let tele = Telemetry.create () in
  let r = Executor.run ~workers:1 ~telemetry:tele (diamond ()) in
  Alcotest.(check (list (pair string int)))
    "artifacts in submission order"
    [ ("a", 10); ("b", 11); ("c", 20); ("d", 31) ]
    r.Executor.artifacts;
  check_int "all finished" 4 (Telemetry.counter_value tele "engine.jobs_finished");
  check_bool "wall measured" true (r.Executor.wall_seconds >= 0.0)

(* Parallel and sequential runs must record the same spans, modulo
   timing, tracks (worker indices), the process-unique run id, and the
   graph span's worker count. *)
let canonical tele =
  List.sort compare
    (List.filter_map
       (fun (s : Telemetry.span) ->
         if s.Telemetry.name = "graph" then None
         else
           Some
             (s.Telemetry.cat, s.Telemetry.name, s.Telemetry.dur_us = None,
              List.filter (fun (k, _) -> k <> "run") s.Telemetry.attrs))
       (Telemetry.spans tele))

let wide_graph () =
  let leaves = List.init 8 (fun i -> Printf.sprintf "leaf%d" i) in
  Jobgraph.make
    (List.mapi (fun i id -> Jobgraph.node ~id ~kind:"t" (fun _ -> i * i)) leaves
    @ [
        Jobgraph.node ~id:"sum" ~kind:"t" ~deps:leaves (fun ctx ->
            List.fold_left (fun acc l -> acc + ctx.Jobgraph.fetch l) 0 leaves);
      ])

let test_executor_parallel_determinism () =
  let seq_tele = Telemetry.create () and par_tele = Telemetry.create () in
  let seq = Executor.run ~workers:1 ~telemetry:seq_tele (wide_graph ()) in
  let par = Executor.run ~workers:4 ~telemetry:par_tele (wide_graph ()) in
  Alcotest.(check (list (pair string int)))
    "same artifacts" seq.Executor.artifacts par.Executor.artifacts;
  check_bool "same spans modulo timing/worker" true (canonical seq_tele = canonical par_tele);
  check_int "nine spans" 9 (List.length (canonical par_tele));
  check_int "sum correct" 140 (List.assoc "sum" par.Executor.artifacts)

let test_executor_failure_propagates () =
  let run workers =
    let g =
      Jobgraph.make
        [
          const_node "ok" 1;
          Jobgraph.node ~id:"bad" ~kind:"t" (fun _ -> failwith "boom");
          Jobgraph.node ~id:"after" ~kind:"t" ~deps:[ "bad" ] (fun _ -> 3);
        ]
    in
    let tele = Telemetry.create () in
    (match Executor.run ~workers ~telemetry:tele g with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure m -> check_string "original exception" "boom" m);
    check_bool
      (Printf.sprintf "-j%d failure instant recorded" workers)
      true
      (List.exists
         (fun (s : Telemetry.span) ->
           s.Telemetry.name = "job-failed" && List.assoc_opt "job" s.Telemetry.attrs = Some "bad")
         (Telemetry.spans tele));
    check_int (Printf.sprintf "-j%d failure counted" workers) 1
      (Telemetry.counter_value tele "engine.job_failures")
  in
  run 1;
  run 4

(* A pooled task's exception re-raises from its join, as from
   [Domain.join], and the task's domain is parked again by then: the
   next task runs on it. A domain left idle for longer than a quarter
   of a second ends, so a task after that runs on a new one. *)
let test_domain_pool_join () =
  let failing : unit Domain_pool.task = Domain_pool.spawn (fun () -> failwith "boom") in
  (match Domain_pool.join failing with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure m -> check_string "the task's exception" "boom" m);
  let on_domain () = Domain_pool.join (Domain_pool.spawn (fun () -> (Domain.self () :> int))) in
  let first = on_domain () in
  check_bool "a pooled task runs off the calling domain" true (first <> (Domain.self () :> int));
  check_int "the next task reuses the parked domain" first (on_domain ());
  Unix.sleepf 0.6;
  check_bool "an idle domain ends" true (on_domain () <> first)

(* Under keep_going a failed job takes its dependents' dependents down
   with it, and nothing else. *)
let test_executor_quarantine_transitive () =
  let run workers =
    let g =
      Jobgraph.make
        [
          const_node "ok" 1;
          Jobgraph.node ~id:"bad" ~kind:"t" (fun _ -> failwith "boom");
          Jobgraph.node ~id:"mid" ~kind:"t" ~deps:[ "bad"; "ok" ] (fun _ -> 2);
          Jobgraph.node ~id:"leaf" ~kind:"t" ~deps:[ "mid" ] (fun _ -> 3);
          Jobgraph.node ~id:"other" ~kind:"t" ~deps:[ "ok" ] (fun ctx -> ctx.Jobgraph.fetch "ok" + 4);
        ]
    in
    let tele = Telemetry.create () in
    let r = Executor.run ~workers ~keep_going:true ~telemetry:tele g in
    let label = Printf.sprintf "-j%d %s" workers in
    Alcotest.(check (list (pair string int))) (label "survivors") [ ("ok", 1); ("other", 5) ]
      r.Executor.artifacts;
    Alcotest.(check (list (pair string string)))
      (label "casualties")
      [
        ("bad", "Failure(\"boom\")");
        ("mid", "dependency bad quarantined");
        ("leaf", "dependency mid quarantined");
      ]
      r.Executor.quarantined;
    check_int (label "quarantine instants") 3 (Telemetry.counter_value tele "engine.quarantined")
  in
  run 1;
  run 4

(* One worker runs the graph in Jobgraph.order, not in the order jobs
   become ready: "late" is ready first but comes after "child". *)
let test_executor_j1_runs_in_order () =
  let g =
    Jobgraph.make
      [
        const_node "root" 1;
        Jobgraph.node ~id:"child" ~kind:"t" ~deps:[ "root" ] (fun _ -> 2);
        const_node "late" 3;
        Jobgraph.node ~id:"grandchild" ~kind:"t" ~deps:[ "child" ] (fun _ -> 4);
      ]
  in
  let tele = Telemetry.create () in
  ignore (Executor.run ~workers:1 ~telemetry:tele g);
  let started =
    List.filter
      (fun (s : Telemetry.span) ->
        s.Telemetry.cat = "engine" && s.Telemetry.dur_us <> None && s.Telemetry.name <> "graph")
      (Telemetry.spans tele)
    |> List.stable_sort (fun (a : Telemetry.span) b -> compare a.Telemetry.start_us b.Telemetry.start_us)
    |> List.map (fun (s : Telemetry.span) -> s.Telemetry.name)
  in
  Alcotest.(check (list string)) "job spans start in Jobgraph.order"
    (List.map Jobgraph.id (Jobgraph.order g))
    started;
  Alcotest.(check (list string)) "that order" [ "root"; "child"; "late"; "grandchild" ] started

let test_executor_deadline_stops_run () =
  (* The first job outlives the deadline: the run stops at that job's
     finish boundary. A passed deadline is not a job failure, so it is
     neither retried nor quarantined, even under keep_going. *)
  let run workers =
    let tele = Telemetry.create () in
    let g =
      Jobgraph.make
        [
          Jobgraph.node ~id:"slow" ~kind:"t" (fun _ ->
              Unix.sleepf 0.06;
              1);
          Jobgraph.node ~id:"next" ~kind:"t" ~deps:[ "slow" ] (fun _ -> 2);
        ]
    in
    (match
       Executor.run ~workers ~max_retries:2 ~keep_going:true ~telemetry:tele
         ~deadline:(Unix.gettimeofday () +. 0.02)
         g
     with
    | _ -> Alcotest.fail "expected Deadline_passed"
    | exception Executor.Deadline_passed -> ());
    List.iter
      (fun (name, want) ->
        check_int (Printf.sprintf "-j%d %s" workers name) want (Telemetry.counter_value tele name))
      [ ("engine.jobs_finished", 1); ("engine.retries", 0); ("engine.quarantined", 0) ]
  in
  run 1;
  run 2

let test_executor_pace_overlaps () =
  (* Four independent jobs, each paced to ~60 ms of modeled tool time.
     A paced job is blocked, not computing, so four workers take one
     job each even on one core: each job span lands on its worker's
     track, four distinct tracks at -j4 and one at -j1. *)
  let graph () =
    Jobgraph.make
      (List.init 4 (fun i ->
           Jobgraph.node
             ~id:(Printf.sprintf "job%d" i)
             ~kind:"t" ~model:(fun _ -> 0.06) (fun _ -> i)))
  in
  let tracks workers =
    let tele = Telemetry.create () in
    ignore (Executor.run ~workers ~pace:1.0 ~telemetry:tele (graph ()));
    let job_spans =
      List.filter
        (fun (s : Telemetry.span) ->
          String.equal s.Telemetry.cat "engine" && String.starts_with ~prefix:"job" s.Telemetry.name)
        (Telemetry.spans tele)
    in
    check_int (Printf.sprintf "-j%d: four job spans" workers) 4 (List.length job_spans);
    List.sort_uniq compare (List.map (fun (s : Telemetry.span) -> s.Telemetry.track) job_spans)
  in
  check_int "-j1 runs every job on one track" 1 (List.length (tracks 1));
  check_int "-j4 runs the jobs on four tracks" 4 (List.length (tracks 4))

(* ---------- build report aggregates vs the telemetry record ---------- *)

(* A build's per-kind tally and phase totals are folded from the
   artifacts the executor returns; the telemetry sink holds the same
   facts as cache-hit instants and modeled flow spans. *)
module Build = Pld_core.Build
module Flow = Pld_core.Flow

let doubler name n =
  let open Pld_ir in
  Op.make ~name ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
    ~locals:[ Op.scalar "x" Dtype.word ]
    [
      Op.For
        {
          var = "i";
          lo = 0;
          hi = n;
          pipeline = true;
          body = [ Op.Read (Op.LVar "x", "in"); Op.Write ("out", Expr.(var "x" + var "x")) ];
        };
    ]

(* Three doubler stages; [edit] changes the trip count of "stage1". *)
let three_stages ?(edit = false) () =
  let open Pld_ir in
  let chan i = if i = 0 then "cin" else if i = 3 then "cout" else Printf.sprintf "c%d" i in
  Graph.make ~name:"three"
    ~channels:(List.init 4 (fun i -> Graph.channel (chan i)))
    ~instances:
      (List.init 3 (fun i ->
           let name = Printf.sprintf "stage%d" i in
           Graph.instance ~target:(Graph.Hw { page_hint = None }) ~name
             (doubler name (if edit && i = 1 then 9 else 8))
             [ ("in", chan i); ("out", chan (i + 1)) ]))
    ~inputs:[ "cin" ] ~outputs:[ "cout" ]

let fabric = lazy (Pld_fabric.Floorplan.u50 ())

let test_event_by_kind () =
  let cache = Build.create_cache () in
  let build ~edit =
    let tele = Telemetry.create () in
    let r = Build.compile ~cache ~jobs:1 ~telemetry:tele (Lazy.force fabric) (three_stages ~edit ()) ~level:Build.O1 in
    (r.Build.report, tele)
  in
  let cold, cold_tele = build ~edit:false in
  let inc, inc_tele = build ~edit:true in
  (* Kinds in first-appearance order; HLS and assignment always run. *)
  Alcotest.(check (list (triple string int int)))
    "cold: every page a miss"
    [ ("hls", 0, 3); ("assign", 0, 1); (Build.kind_page, 0, 3) ]
    cold.Build.by_kind;
  Alcotest.(check (list (triple string int int)))
    "edit: two page hits, one miss"
    [ ("hls", 0, 3); ("assign", 0, 1); (Build.kind_page, 2, 1) ]
    inc.Build.by_kind;
  check_int "hits" 2 inc.Build.cache_hits;
  (* The telemetry record agrees: one memory cache-hit instant per hit. *)
  let page_hits tele =
    List.length
      (List.filter
         (fun (s : Telemetry.span) ->
           s.Telemetry.name = "cache-hit"
           && List.assoc_opt "kind" s.Telemetry.attrs = Some Build.kind_page
           && List.assoc_opt "source" s.Telemetry.attrs = Some "memory")
         (Telemetry.spans tele))
  in
  check_int "no hit instants cold" 0 (page_hits cold_tele);
  check_int "two hit instants on the edit" 2 (page_hits inc_tele);
  check_int "hit counter" 2 (Telemetry.counter_value inc_tele "engine.cache_hits")

let test_event_phase_totals () =
  let tele = Telemetry.create () in
  let r =
    Build.compile ~cache:(Build.create_cache ()) ~jobs:1 ~telemetry:tele (Lazy.force fabric)
      (three_stages ()) ~level:Build.O1
  in
  let pages =
    List.map
      (fun (_, c) ->
        match c with Build.Hw_page h -> h.Flow.times | Build.Soft_page _ -> Alcotest.fail "expected hardware page")
      r.Build.operators
  in
  check_int "three pages" 3 (List.length pages);
  let summed field = List.fold_left (fun acc t -> acc +. field t) 0.0 pages in
  let modeled phase =
    List.fold_left
      (fun acc (s : Telemetry.span) ->
        match s.Telemetry.dur_us with
        | Some d when s.Telemetry.cat = "flow" && s.Telemetry.name = phase -> acc +. (d /. 1e6)
        | _ -> acc)
      0.0 (Telemetry.spans tele)
  in
  let p = r.Build.report.Build.phases in
  List.iter
    (fun (phase, total, field) ->
      Alcotest.(check (float 1e-9)) (phase ^ " summed over pages") (summed field) total;
      Alcotest.(check (float 1e-6)) (phase ^ " matches the modeled spans") total (modeled phase))
    [
      ("hls", p.Flow.hls, fun t -> t.Flow.hls);
      ("syn", p.Flow.syn, fun t -> t.Flow.syn);
      ("pnr", p.Flow.pnr, fun t -> t.Flow.pnr);
      ("bitgen", p.Flow.bitgen, fun t -> t.Flow.bitgen);
      ("overhead", p.Flow.overhead, fun t -> t.Flow.overhead);
    ];
  check_bool "phases are non-trivial" true (Flow.total_seconds p > 0.0)

(* ---------- makespan ---------- *)

let test_lpt_known_values () =
  Alcotest.(check (float 1e-9)) "three workers" 3.0 (Makespan.lpt ~workers:3 [ 3.0; 2.0; 1.0 ]);
  Alcotest.(check (float 1e-9)) "serial" 6.0 (Makespan.lpt ~workers:1 [ 3.0; 2.0; 1.0 ]);
  Alcotest.(check (float 1e-9)) "two workers" 3.0 (Makespan.lpt ~workers:2 [ 2.0; 2.0; 1.0; 1.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Makespan.lpt ~workers:4 []);
  match Makespan.lpt ~workers:0 [ 1.0 ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let prop_lpt_bounds =
  QCheck.Test.make ~name:"LPT: max duration <= makespan <= serial sum; workers=1 is serial"
    ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 0 12) (float_range 0.0 100.0)))
    (fun (workers, durations) ->
      let m = Makespan.lpt ~workers durations in
      let sum = List.fold_left ( +. ) 0.0 durations in
      let longest = List.fold_left Float.max 0.0 durations in
      let eps = 1e-6 in
      m >= longest -. eps && m <= sum +. eps
      && abs_float (Makespan.lpt ~workers:1 durations -. sum) <= eps)

let suite =
  [
    ("digest: length framing", `Quick, test_digest_framing);
    ("digest: is_hex", `Quick, test_digest_is_hex);
    ("store: roundtrip + fresh handle", `Quick, test_store_roundtrip);
    ("store: kinds partition the namespace", `Quick, test_store_kind_partition);
    ("store: corrupt payload evicted", `Quick, test_store_corruption_evicted);
    ("store: truncated entry evicted", `Quick, test_store_truncation_evicted);
    ("store: stale version swept on open", `Quick, test_store_stale_version_swept);
    ("store: malformed filename swept", `Quick, test_store_foreign_art_swept);
    ("store: bad kind/key rejected", `Quick, test_store_bad_names_rejected);
    ("store: orphaned temp files swept on open", `Quick, test_store_tmp_swept_on_open);
    ("store: LRU eviction at a tight budget", `Quick, test_store_lru_eviction);
    ("store: oversized entry is never its own victim", `Quick, test_store_oversized_entry_kept);
    ("store: LRU order survives reopen", `Quick, test_store_lru_survives_reopen);
    ("store: stats and telemetry counters", `Quick, test_store_stats_and_telemetry);
    ("store: two processes share one directory", `Slow, test_store_two_process_hammer);
    ("store: 100 opens share one lock fd", `Quick, test_store_opens_share_one_lock_fd);
    ("store: two handles in one process", `Quick, test_store_two_handles_in_one_process);
    (* The forked tests must precede every domain-spawning test in the
       whole binary: OCaml 5 forbids Unix.fork once any domain was
       ever created (see lib/service/chaos.mli, forked_names). *)
    ("store: SIGKILL mid-insert leaves no torn entry", `Slow, test_store_killed_mid_insert);
    ("store: SIGKILL mid-append: journal still opens", `Slow, test_store_killed_mid_append);
    ("store: LRU refresh in another process survives reopen", `Slow, test_store_lru_across_processes);
    ("store: torn journal line is ignored", `Quick, test_store_torn_journal_line_ignored);
    ("store: unjournalled entry adopted at stamp 0", `Quick, test_store_unjournalled_entry_adopted);
    ("store: find and put index I/O independent of entry count", `Quick,
     test_store_op_cost_independent_of_size);
    ("store: open reads at most max_header bytes per entry", `Quick,
     test_store_open_reads_headers_only);
    ("store: scrub quarantines exactly the damage", `Quick, test_store_scrub_quarantines_exact_damage);
    ("store: quarantine mode preserves evidence", `Quick, test_store_quarantine_mode_preserves_evidence);
    ("store: open checks headers, find checks payloads", `Quick,
     test_store_open_checks_headers_find_checks_payloads);
    ("jobgraph: topological order", `Quick, test_jobgraph_order);
    ("jobgraph: duplicate id rejected", `Quick, test_jobgraph_duplicate_id);
    ("jobgraph: unknown dep rejected", `Quick, test_jobgraph_unknown_dep);
    ("jobgraph: cycle rejected", `Quick, test_jobgraph_cycle);
    ("executor: undeclared fetch rejected", `Quick, test_fetch_non_dependency_rejected);
    ("executor: sequential run", `Quick, test_executor_sequential);
    ("executor: parallel = sequential", `Quick, test_executor_parallel_determinism);
    ("executor: failure propagates", `Quick, test_executor_failure_propagates);
    ("executor: quarantine is transitive", `Quick, test_executor_quarantine_transitive);
    ("executor: -j1 runs in Jobgraph.order", `Quick, test_executor_j1_runs_in_order);
    ("executor: deadline stops the run", `Quick, test_executor_deadline_stops_run);
    ("executor: paced jobs overlap", `Slow, test_executor_pace_overlaps);
    ("events: by_kind hits/misses", `Quick, test_event_by_kind);
    ("events: phase totals", `Quick, test_event_phase_totals);
    ("makespan: known values", `Quick, test_lpt_known_values);
    QCheck_alcotest.to_alcotest prop_lpt_bounds;
    ("domain pool: join re-raises, domains park and idle out", `Quick, test_domain_pool_join);
  ]
