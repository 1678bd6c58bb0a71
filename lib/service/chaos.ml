(* Seeded crash-recovery harness: each scenario injects one class of
   failure — a SIGKILLed store writer, seeded on-disk corruption,
   clients vanishing mid-request, an overload flood with wedged
   builds — and asserts the conservation invariants that make the
   service trustworthy under it: no request is silently dropped (every
   attempt ends as completed, failed, shed, deadline-exceeded, lost or
   rejected), a kill mid-write never yields a corrupt read, and a
   scrub finds exactly the entries that were damaged.

   Scenarios are deterministic given a seed wherever the OS allows:
   the in-process ones (overload, corrupt-store, conn-storm) produce
   exact counter values the regression sentinel pins; the forked ones
   (crash-writer, kill-daemon) have seeded timing but assert
   timing-independent invariants. *)

module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module Rng = Pld_util.Rng
module Digest_lite = Pld_util.Digest_lite
module Store = Pld_engine.Store
module Fault = Pld_faults.Fault

type check = { ck_name : string; ck_ok : bool; ck_detail : string }

type scenario_report = {
  sr_name : string;
  sr_checks : check list;
  sr_counters : (string * int) list;  (** sorted by name *)
  sr_wall_s : float;
}

type report = { r_seed : int; r_scenarios : scenario_report list }

let scenario_ok s = List.for_all (fun c -> c.ck_ok) s.sr_checks
let ok r = List.for_all scenario_ok r.r_scenarios

let counters r =
  List.concat_map
    (fun s -> List.map (fun (k, v) -> (s.sr_name ^ "." ^ k, v)) s.sr_counters)
    r.r_scenarios

(* ---------- plumbing ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir ~root ~seed name =
  let base = match root with Some d -> d | None -> Filename.get_temp_dir_name () in
  let d = Filename.concat base (Printf.sprintf "pld-chaos-%d-%d-%s" (Unix.getpid ()) seed name) in
  rm_rf d;
  mkdir_p d;
  d

let wait_until ?(timeout_s = 10.0) f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Thread.yield ();
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* Per-scenario check accumulator. *)
type ledger = { mutable checks : check list }

let push lg name ok detail = lg.checks <- { ck_name = name; ck_ok = ok; ck_detail = detail } :: lg.checks

let pushb lg name ok = push lg name ok (if ok then "" else "violated")

let finish ~name ~t0 ~counters lg =
  {
    sr_name = name;
    sr_checks = List.rev lg.checks;
    sr_counters = List.sort compare counters;
    sr_wall_s = Unix.gettimeofday () -. t0;
  }

let chain_resolve name =
  match Traffic.chain_of_name name with
  | Ok chain -> Ok (Traffic.chain_graph chain)
  | Error _ as e -> e

(* Every surviving entry must deserialize — "zero corrupt reads". The
   payload type is irrelevant; validation happens before unmarshal. *)
let readable_entries st =
  List.for_all
    (fun (kind, key) ->
      match (Store.find st ~kind ~key : Obj.t option) with Some _ -> true | None -> false)
    (Store.entries st)

(* ---------- crash-writer: SIGKILL a store writer mid-put ---------- *)

(* A forked child hammers [Store.put]; the parent kills it at a seeded
   moment and then audits the store. Atomic temp-file+rename writes are
   exactly what makes this survivable: however ill-timed the kill, a
   reopened store must scrub clean and read back every entry. *)
let scenario_crash_writer ~seed ~root _log =
  let t0 = Unix.gettimeofday () in
  let lg = { checks = [] } in
  let dir = fresh_dir ~root ~seed "crash-writer" in
  let rng = Rng.create ((seed * 7919) + 1) in
  let r, w = Unix.pipe () in
  (match Unix.fork () with
  | 0 ->
      (try
         Unix.close r;
         let st = Store.open_ ~dir () in
         let payload i = List.init 512 (fun k -> ((k * i) + seed) land 0xffff) in
         Store.put st ~kind:"chaos" ~key:(Digest_lite.of_string "w0") (payload 0);
         (* One entry is durable; tell the parent the hammering began. *)
         ignore (Unix.write_substring w "r" 0 1);
         let i = ref 0 in
         while true do
           incr i;
           Store.put st ~kind:"chaos"
             ~key:(Digest_lite.of_string (Printf.sprintf "w%d" !i))
             (payload !i)
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ready = Bytes.create 1 in
      ignore (Unix.read r ready 0 1);
      Unix.close r;
      Unix.sleepf (0.01 +. Rng.float rng 0.05);
      Unix.kill pid Sys.sigkill;
      let _, status = Unix.waitpid [] pid in
      pushb lg "writer died by SIGKILL" (status = Unix.WSIGNALED Sys.sigkill));
  let tele = T.create () in
  let st = Store.open_ ~quarantine:true ~telemetry:tele ~dir () in
  let rep = Store.scrub st in
  push lg "writer made progress before the kill"
    (Store.count st >= 1)
    (Printf.sprintf "%d entries survived" (Store.count st));
  push lg "kill mid-write left no torn entries"
    (rep.Store.sc_quarantined = 0)
    (Store.render_scrub rep);
  pushb lg "zero corrupt reads after restart" (readable_entries st);
  let counters =
    [
      ("entries", Store.count st);
      ("quarantined", T.counter_value tele "store.quarantined");
    ]
  in
  finish ~name:"crash-writer" ~t0 ~counters lg

(* ---------- corrupt-store: seeded damage, exact scrub ---------- *)

(* Write six entries, damage a seeded three of them three different
   ways (truncation, payload bit-flip, header garble), and require the
   reopen and the scrub together to quarantine exactly those three —
   open's header check takes the truncation and the garble, the scrub's
   payload digest the bit-flip. Survivors still read, victims read as
   clean misses, and the torn bytes are preserved in store.quarantine/
   for post-mortem. *)
let scenario_corrupt_store ~seed ~root _log =
  let t0 = Unix.gettimeofday () in
  let lg = { checks = [] } in
  let dir = fresh_dir ~root ~seed "corrupt-store" in
  let rng = Rng.create ((seed * 7919) + 2) in
  let key i = Digest_lite.of_string (Printf.sprintf "entry-%d" i) in
  let payload i = List.init 256 (fun k -> ((k * (i + 3)) + seed) land 0xffff) in
  let writer = Store.open_ ~dir () in
  for i = 0 to 5 do
    Store.put writer ~kind:"chaos" ~key:(key i) (payload i)
  done;
  let idx = [| 0; 1; 2; 3; 4; 5 |] in
  Rng.shuffle rng idx;
  let victims = [ idx.(0); idx.(1); idx.(2) ] in
  let entry_file i = Filename.concat dir (Printf.sprintf "chaos-%s.art" (key i)) in
  let damage n i =
    let file = entry_file i in
    match n with
    | 0 ->
        (* Torn write: lose the tail. *)
        let len = (Unix.stat file).Unix.st_size in
        let fd = Unix.openfile file [ Unix.O_WRONLY ] 0 in
        Unix.ftruncate fd (len / 2);
        Unix.close fd
    | 1 ->
        (* Bit rot: flip one payload bit at the end of the file. *)
        let ic = open_in_bin file in
        let len = in_channel_length ic in
        let buf = really_input_string ic len in
        close_in ic;
        let b = Bytes.of_string buf in
        Bytes.set b (len - 1) (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 0x40));
        let oc = open_out_bin file in
        output_bytes oc b;
        close_out oc
    | _ ->
        (* Garbled header: wrong magic. *)
        let fd = Unix.openfile file [ Unix.O_WRONLY ] 0 in
        ignore (Unix.write_substring fd "XXX" 0 3);
        Unix.close fd
  in
  List.iteri damage victims;
  let tele = T.create () in
  let st = Store.open_ ~quarantine:true ~telemetry:tele ~dir () in
  ignore (Store.scrub st);
  let quarantined = T.counter_value tele "store.quarantined" in
  push lg "open + scrub quarantined exactly the damaged entries" (quarantined = 3)
    (Printf.sprintf "%d quarantined (expected 3)" quarantined);
  let survivors = List.filter (fun i -> not (List.mem i victims)) [ 0; 1; 2; 3; 4; 5 ] in
  pushb lg "undamaged entries still read valid"
    (List.for_all
       (fun i ->
         match (Store.find st ~kind:"chaos" ~key:(key i) : int list option) with
         | Some p -> p = payload i
         | None -> false)
       survivors);
  pushb lg "damaged entries read as clean misses"
    (List.for_all
       (fun i -> (Store.find st ~kind:"chaos" ~key:(key i) : int list option) = None)
       victims);
  push lg "live store holds only the survivors" (Store.count st = 3)
    (Printf.sprintf "%d entries" (Store.count st));
  let evidence =
    match Sys.readdir (Store.quarantine_dir st) with
    | files -> Array.length files
    | exception Sys_error _ -> 0
  in
  push lg "torn bytes preserved for post-mortem" (evidence = 3)
    (Printf.sprintf "%d files in %s" evidence (Store.quarantine_dir st));
  finish ~name:"corrupt-store" ~t0 ~counters:[ ("quarantined", quarantined); ("survivors", Store.count st) ] lg

(* ---------- conn-storm: clients vanishing mid-request ---------- *)

(* An in-process Server (own thread, private socket) is stormed by
   clients that send half a request and hang up. Each drop must be
   counted — never silently swallowed — and the daemon must keep
   serving afterwards. Also pins the retry machinery: a dead socket
   costs exactly attempts-1 seeded-backoff retries. *)
let scenario_conn_storm ~seed ~root _log =
  let t0 = Unix.gettimeofday () in
  let lg = { checks = [] } in
  let dir = fresh_dir ~root ~seed "conn-storm" in
  let socket = Filename.concat dir "pldd.sock" in
  let tele = T.create () in
  let svc = Service.create ~queue_workers:1 ~telemetry:tele () in
  let ready = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        ignore
          (Server.serve ~socket ~install_signals:false ~telemetry:tele
             ~logger:(Pld_telemetry.Log.create ())
             ~on_listen:(fun () -> Atomic.set ready true)
             ~service:svc
             ~handler:(fun t e -> Server.handle t ~resolve:chain_resolve e)
             ()))
      ()
  in
  pushb lg "server came up" (wait_until (fun () -> Atomic.get ready));
  pushb lg "claim_socket refuses a live daemon"
    (match Server.claim_socket socket with Error _ -> true | Ok () -> false);
  let drops = 3 in
  for _ = 1 to drops do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    (* Half a request, then vanish: the server's error reply hits a
       closed peer (EPIPE) and must be accounted, not swallowed. *)
    ignore (Unix.write_substring fd "{\"half\":" 0 8);
    Unix.close fd
  done;
  pushb lg "every dropped connection was counted"
    (wait_until (fun () -> T.counter_value tele "service.conn_errors" >= drops));
  let ping () =
    match Client.rpc ~socket (Protocol.envelope Protocol.Ping) with
    | Ok r -> r.Protocol.ok
    | Error _ -> false
  in
  pushb lg "daemon still serves after the storm" (ping ());
  (let e =
     Protocol.envelope ~tenant:"chaos" (Protocol.Compile { bench = "svc-1x2"; level = "O1" })
   in
   match Client.rpc_retry ~telemetry:tele ~socket e with
   | Ok r -> pushb lg "compile via retrying client succeeds" r.Protocol.ok
   | Error msg -> push lg "compile via retrying client succeeds" false msg);
  let backoff =
    { Client.default_backoff with Client.b_attempts = 3; b_base_s = 0.001; b_cap_s = 0.002; b_seed = seed }
  in
  (match
     Client.rpc_retry ~backoff ~telemetry:tele ~socket:(Filename.concat dir "nope.sock")
       (Protocol.envelope Protocol.Ping)
   with
  | Error _ -> pushb lg "dead socket fails after the retry budget" true
  | Ok _ -> pushb lg "dead socket fails after the retry budget" false);
  let retries = T.counter_value tele "client.retries" in
  push lg "retry count is exactly attempts-1" (retries = backoff.Client.b_attempts - 1)
    (Printf.sprintf "%d retries (expected %d)" retries (backoff.Client.b_attempts - 1));
  (match Client.rpc ~socket (Protocol.envelope Protocol.Shutdown) with
  | Ok r -> pushb lg "shutdown acknowledged" r.Protocol.ok
  | Error msg -> push lg "shutdown acknowledged" false msg);
  Thread.join server;
  pushb lg "drained server removed its socket" (not (Sys.file_exists socket));
  let counters =
    [
      ("conn_errors", T.counter_value tele "service.conn_errors");
      ("client_retries", retries);
    ]
  in
  finish ~name:"conn-storm" ~t0 ~counters lg

(* ---------- overload: flood, deadlines, watchdog, shedding ---------- *)

(* Four small services, one per failure mode, sharing a telemetry sink
   so the counters the sentinel pins accumulate in one place. Every
   sub-scenario is exact: the hang injector wedges a named graph for a
   known time, deadlines and budgets are chosen so outcomes cannot
   race. *)
let scenario_overload ~seed ~root:_ _log =
  let t0 = Unix.gettimeofday () in
  let lg = { checks = [] } in
  let tele = T.create () in
  let chain = Traffic.chain_graph in
  let conserve name st =
    let open Service in
    let accounted =
      st.st_completed + st.st_failed + st.st_deadline_exceeded + st.st_lost + st.st_queue_depth
      + st.st_in_flight + st.st_following
    in
    push lg
      (name ^ ": every admitted request is accounted for")
      (st.st_submitted = accounted)
      (Printf.sprintf "submitted %d, accounted %d" st.st_submitted accounted)
  in
  (* a. A wedged build trips the watchdog: the job is written off as
     Lost and a replacement worker keeps the pool serving. *)
  let fa = Fault.create ~seed (Fault.parse_exn "hang=svc-9@500") in
  let svc = Service.create ~queue_workers:1 ~watchdog_timeout_s:0.12 ~faults:fa ~telemetry:tele () in
  (match Service.compile svc ~tenant:"chaos" (chain [ 9 ]) with
  | Error (Service.Lost _) -> pushb lg "watchdog writes off the wedged build" true
  | Ok _ -> push lg "watchdog writes off the wedged build" false "completed instead"
  | Error rej -> push lg "watchdog writes off the wedged build" false (Service.reject_message rej));
  (match Service.compile svc ~tenant:"chaos" (chain [ 1 ]) with
  | Ok _ -> pushb lg "replacement worker serves after the kill" true
  | Error rej -> push lg "replacement worker serves after the kill" false (Service.reject_message rej));
  let sta = Service.stats svc in
  push lg "exactly one watchdog kill" (sta.Service.st_watchdog_kills = 1)
    (Printf.sprintf "%d kills" sta.Service.st_watchdog_kills);
  conserve "watchdog" sta;
  Service.shutdown svc;
  (* b. Queued deadlines: a wedged primary blocks the single worker;
     everything queued behind it with a 50 ms budget expires from the
     queue, the blocker itself still completes. *)
  let fb = Fault.create ~seed (Fault.parse_exn "hang=svc-8@300") in
  let svc = Service.create ~queue_workers:1 ~faults:fb ~telemetry:tele () in
  let blocker =
    match Service.submit svc ~tenant:"chaos" (chain [ 8 ]) with
    | Ok tk -> Some tk
    | Error _ -> None
  in
  pushb lg "blocker admitted" (blocker <> None);
  ignore
    (wait_until (fun () -> (Service.stats svc).Service.st_in_flight = 1));
  let doomed =
    List.filter_map
      (fun i ->
        match Service.submit svc ~tenant:"chaos" ~deadline_ms:50 (chain [ i ]) with
        | Ok tk -> Some tk
        | Error _ -> None)
      [ 0; 1; 2 ]
  in
  push lg "flood admitted behind the blocker" (List.length doomed = 3)
    (Printf.sprintf "%d admitted" (List.length doomed));
  let expired_queued =
    List.for_all
      (fun tk ->
        match Service.await svc tk with
        | Error (Service.Deadline_exceeded { stage = "queued"; _ }) -> true
        | _ -> false)
      doomed
  in
  pushb lg "queued jobs expired by their deadline, oldest first" expired_queued;
  (match blocker with
  | Some tk -> (
      match Service.await svc tk with
      | Ok _ -> pushb lg "blocker still completed" true
      | Error rej -> push lg "blocker still completed" false (Service.reject_message rej))
  | None -> ());
  let stb = Service.stats svc in
  push lg "three queued deadline expiries" (stb.Service.st_deadline_exceeded = 3)
    (Printf.sprintf "%d expired" stb.Service.st_deadline_exceeded);
  conserve "queued-deadline" stb;
  Service.shutdown svc;
  (* c. Mid-build deadline: the build starts before its 80 ms budget
     runs out but wedges for 250 ms; expiry fires at the next
     tool-phase boundary. *)
  let fc = Fault.create ~seed (Fault.parse_exn "hang=svc-7@250") in
  let svc = Service.create ~queue_workers:1 ~faults:fc ~telemetry:tele () in
  (match Service.compile svc ~tenant:"chaos" ~deadline_ms:80 (chain [ 7 ]) with
  | Error (Service.Deadline_exceeded { stage = "build"; _ }) ->
      pushb lg "mid-build deadline fires at a tool-phase boundary" true
  | Ok _ -> push lg "mid-build deadline fires at a tool-phase boundary" false "completed instead"
  | Error rej ->
      push lg "mid-build deadline fires at a tool-phase boundary" false (Service.reject_message rej));
  conserve "build-deadline" (Service.stats svc);
  Service.shutdown svc;
  (* d. Shedding: with a 1 s assumed build and a 0.2 s budget, any
     low-priority request behind the wedged blocker is refused with a
     deterministic 800 ms retry hint; exempt priority sails through. *)
  let fd = Fault.create ~seed (Fault.parse_exn "hang=svc-6@250") in
  let shed =
    { Service.sp_max_delay_s = 0.2; Service.sp_exempt_priority = 50; Service.sp_assumed_build_s = 1.0 }
  in
  let svc = Service.create ~queue_workers:1 ~shed ~faults:fd ~telemetry:tele () in
  let blocker =
    match Service.submit svc ~tenant:"chaos" (chain [ 6 ]) with Ok tk -> Some tk | Error _ -> None
  in
  pushb lg "shed blocker admitted" (blocker <> None);
  ignore (wait_until (fun () -> (Service.stats svc).Service.st_in_flight = 1));
  let sheds =
    List.map (fun i -> Service.submit svc ~tenant:"mob" (chain [ 10 + i ])) [ 0; 1; 2; 3; 4 ]
  in
  let hints =
    List.filter_map
      (function Error (Service.Shed { retry_after_ms; _ }) -> Some retry_after_ms | _ -> None)
      sheds
  in
  push lg "the whole low-priority flood was shed" (List.length hints = 5)
    (Printf.sprintf "%d shed" (List.length hints));
  pushb lg "shed replies carry a positive retry hint" (List.for_all (fun ms -> ms > 0) hints);
  (match Service.compile svc ~tenant:"vip" ~priority:50 (chain [ 20 ]) with
  | Ok _ -> pushb lg "exempt priority is never shed" true
  | Error rej -> push lg "exempt priority is never shed" false (Service.reject_message rej));
  (match blocker with Some tk -> ignore (Service.await svc tk) | None -> ());
  let std = Service.stats svc in
  push lg "five shed refusals counted" (std.Service.st_shed = 5)
    (Printf.sprintf "%d shed" std.Service.st_shed);
  conserve "shed" std;
  Service.shutdown svc;
  let counters =
    [
      ("shed", T.counter_value tele "service.shed");
      ("deadline_exceeded", T.counter_value tele "service.deadline_exceeded");
      ("watchdog_kills", T.counter_value tele "service.watchdog_kills");
      ("lost", T.counter_value tele "service.lost");
    ]
  in
  finish ~name:"overload" ~t0 ~counters lg

(* ---------- kill-daemon: SIGKILL the whole daemon under load ---------- *)

(* A forked daemon (real Server over a persistent store) serves a
   compile flood; the parent SIGKILLs it at a seeded moment — possibly
   mid-store-write — then proves the crash cost nothing durable: the
   stale socket is reclaimed by the connect-probe, the store scrubs
   clean, and every surviving artifact reads back valid. *)
let scenario_kill_daemon ~seed ~root _log =
  let t0 = Unix.gettimeofday () in
  let lg = { checks = [] } in
  let dir = fresh_dir ~root ~seed "kill-daemon" in
  let socket = Filename.concat dir "pldd.sock" in
  let cache_dir = Filename.concat dir "store" in
  let rng = Rng.create ((seed * 7919) + 3) in
  (match Unix.fork () with
  | 0 ->
      (try
         let svc = Service.create ~cache_dir ~quarantine:true ~queue_workers:1 () in
         ignore
           (Server.serve ~socket ~install_signals:false
              ~logger:(Pld_telemetry.Log.create ())
              ~service:svc
              ~handler:(fun t e -> Server.handle t ~resolve:chain_resolve e)
              ())
       with _ -> ());
      Unix._exit 0
  | pid ->
      pushb lg "daemon came up" (wait_until (fun () -> Sys.file_exists socket));
      pushb lg "claim_socket refuses the live daemon"
        (match Server.claim_socket socket with Error _ -> true | Ok () -> false);
      (* Kill at a seeded moment while the flood below is compiling. *)
      let killer =
        Thread.create
          (fun () ->
            Unix.sleepf (0.05 +. Rng.float rng 0.15);
            Unix.kill pid Sys.sigkill)
          ()
      in
      let served = ref 0 in
      (try
         for i = 1 to 500 do
           let bench = Traffic.chain_name [ i mod 12; (i / 12) mod 12 ] in
           match
             Client.rpc ~socket
               (Protocol.envelope ~tenant:"chaos" (Protocol.Compile { bench; level = "O1" }))
           with
           | Ok r when r.Protocol.ok -> incr served
           | Ok _ -> ()
           | Error _ -> raise Exit
         done
       with Exit -> ());
      Thread.join killer;
      let _, status = Unix.waitpid [] pid in
      pushb lg "daemon died by SIGKILL" (status = Unix.WSIGNALED Sys.sigkill);
      push lg "requests were served before the kill" (!served >= 1)
        (Printf.sprintf "%d served" !served));
  pushb lg "stale socket reclaimed by the connect-probe"
    (match Server.claim_socket socket with Ok () -> true | Error _ -> false);
  pushb lg "stale socket actually removed" (not (Sys.file_exists socket));
  let tele = T.create () in
  let st = Store.open_ ~quarantine:true ~telemetry:tele ~dir:cache_dir () in
  let rep = Store.scrub st in
  push lg "store scrubs clean after the crash" (rep.Store.sc_quarantined = 0) (Store.render_scrub rep);
  pushb lg "zero corrupt reads after restart" (readable_entries st);
  let counters =
    [
      ("entries", Store.count st);
      ("quarantined", T.counter_value tele "store.quarantined");
    ]
  in
  finish ~name:"kill-daemon" ~t0 ~counters lg

(* ---------- runner ---------- *)

let scenarios =
  [
    ("crash-writer", scenario_crash_writer);
    ("kill-daemon", scenario_kill_daemon);
    ("corrupt-store", scenario_corrupt_store);
    ("conn-storm", scenario_conn_storm);
    ("overload", scenario_overload);
  ]

let scenario_names = List.map fst scenarios

let deterministic_names = [ "corrupt-store"; "conn-storm"; "overload" ]

(* OCaml 5 forbids Unix.fork once any domain has ever been spawned in
   the process, so the forked scenarios must all run — across every
   seed — before the first Service (worker domains) is created. *)
let forked_names = [ "crash-writer"; "kill-daemon" ]

let select only =
  match only with
  | None -> scenarios
  | Some names ->
      List.iter
        (fun n ->
          if not (List.mem_assoc n scenarios) then
            invalid_arg
              (Printf.sprintf "unknown chaos scenario %S (have: %s)" n
                 (String.concat ", " scenario_names)))
        names;
      List.filter (fun (n, _) -> List.mem n names) scenarios

let with_sigpipe_ignored f =
  (* A dropped client makes the server write into a closed socket;
     that must surface as EPIPE, not kill the process. *)
  let prev =
    match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | s -> Some s
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  Fun.protect
    ~finally:(fun () -> match prev with Some s -> Sys.set_signal Sys.sigpipe s | None -> ())
    f

let run_scenario ~seed ~dir ~log (name, f) =
  log (Printf.sprintf "chaos: %s (seed %d)..." name seed);
  let r = f ~seed ~root:dir log in
  log
    (Printf.sprintf "chaos: %s %s (%.2fs)" name
       (if scenario_ok r then "ok" else "FAILED")
       r.sr_wall_s);
  r

let run_seeds ?(seeds = [ 7 ]) ?dir ?only ?(log = fun _ -> ()) () =
  with_sigpipe_ignored (fun () ->
      let wanted = select only in
      let forked, domainful = List.partition (fun (n, _) -> List.mem n forked_names) wanted in
      (* Phase 1: everything that forks, for every seed; phase 2: the
         domain-creating rest. Reports are reassembled per seed in
         registry order. *)
      let phase scen = List.map (fun seed -> (seed, List.map (run_scenario ~seed ~dir ~log) scen)) seeds in
      let fork_phase = phase forked in
      let domain_phase = phase domainful in
      List.map
        (fun seed ->
          let of_phase p = try List.assoc seed p with Not_found -> [] in
          let parts = of_phase fork_phase @ of_phase domain_phase in
          let ordered =
            List.filter_map
              (fun (n, _) -> List.find_opt (fun s -> s.sr_name = n) parts)
              wanted
          in
          { r_seed = seed; r_scenarios = ordered })
        seeds)

let run ?(seed = 7) ?dir ?only ?(log = fun _ -> ()) () =
  match run_seeds ~seeds:[ seed ] ?dir ?only ~log () with
  | [ r ] -> r
  | _ -> assert false

(* ---------- reporting ---------- *)

let report_json r =
  Json.Obj
    [
      ("seed", Json.Int r.r_seed);
      ("ok", Json.Bool (ok r));
      ( "scenarios",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.sr_name);
                   ("ok", Json.Bool (scenario_ok s));
                   ("wall_s", Json.Float s.sr_wall_s);
                   ( "checks",
                     Json.List
                       (List.map
                          (fun c ->
                            Json.Obj
                              [
                                ("name", Json.String c.ck_name);
                                ("ok", Json.Bool c.ck_ok);
                                ("detail", Json.String c.ck_detail);
                              ])
                          s.sr_checks) );
                   ( "counters",
                     Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.sr_counters) );
                 ])
             r.r_scenarios) );
    ]

let render r =
  List.concat_map
    (fun s ->
      Printf.sprintf "%-14s %s  (%.2fs)" s.sr_name
        (if scenario_ok s then "ok" else "FAILED")
        s.sr_wall_s
      :: List.map
           (fun c ->
             Printf.sprintf "  [%s] %s%s"
               (if c.ck_ok then "pass" else "FAIL")
               c.ck_name
               (if c.ck_detail = "" then "" else ": " ^ c.ck_detail))
           s.sr_checks
      @ List.map (fun (k, v) -> Printf.sprintf "    %s = %d" k v) s.sr_counters)
    r.r_scenarios
