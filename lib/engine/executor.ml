module Telemetry = Pld_telemetry.Telemetry

type 'a result = {
  artifacts : (string * 'a) list;
  quarantined : (string * string) list;
  wall_seconds : float;
}

exception Job_timeout of string
exception Deadline_passed

(* What every node of one run records into. *)
type recorder = {
  tele : Telemetry.t;
  run : string;  (** stamped on every span so one sink can hold many runs *)
  extra : (string * string) list;
      (** caller attributes (e.g. a request trace id) appended to every
          span and instant this run records *)
  deadline : float option;
}

(* A process-wide run id distinguishes the spans of successive (or
   overlapping) executor runs recorded into the same sink: trace
   analyzers group job spans by their "run" attribute instead of
   guessing at time windows. *)
let run_ids = Atomic.make 0

let bump r name = Telemetry.incr (Telemetry.counter r.tele name)

(* Every job attempt's start, finish and failure — and the graph's own
   start and finish — is a tool-phase boundary: a run past its
   deadline stops at the next one instead of running to completion. *)
let check_deadline r =
  match r.deadline with
  | Some d when Unix.gettimeofday () > d -> raise Deadline_passed
  | _ -> ()

let job_failed r ~job ~kind ~worker error =
  bump r "engine.job_failures";
  Telemetry.instant r.tele ~cat:"engine" ~track:worker
    ~attrs:([ ("job", job); ("kind", kind); ("error", error) ] @ r.extra)
    "job-failed";
  check_deadline r

(* The modeled per-phase breakdown of a finished job becomes a private
   modeled track tiled with one span per phase. *)
let job_finished r ~job ~kind phases =
  bump r "engine.jobs_finished";
  if phases <> [] then begin
    let mt = Telemetry.modeled_track r.tele ~cat:"flow" ~name:job in
    List.iter
      (fun (phase, seconds) ->
        Telemetry.modeled_span r.tele mt
          ~attrs:([ ("job", job); ("kind", kind); ("run", r.run) ] @ r.extra)
          phase seconds)
      phases
  end;
  check_deadline r

let pace_off ~pace ~model ~elapsed =
  if pace > 0.0 then begin
    let due = (pace *. model) -. elapsed in
    if due > 0.0 then Unix.sleepf due
  end

(* Runs one node against completed results, returning its artifact and
   recording its span (failures are recorded and re-raised).
   [job_timeout] bounds the job's wall-clock (pacing included): a job
   that ran past it counts as failed — modeling a tool invocation
   killed by the build supervisor — and its artifact is discarded. *)
let run_node ~rec_ ~pace ~job_timeout ~worker ~fetch node =
  let id = Jobgraph.id node and kind = Jobgraph.kind node in
  check_deadline rec_;
  (* The whole job body runs inside one exception-safe telemetry span
     (pacing included), so a raising job still closes its span. *)
  Telemetry.with_span rec_.tele ~cat:"engine" ~track:worker
    ~attrs:
      ([ ("kind", kind); ("run", rec_.run); ("deps", String.concat "," (Jobgraph.deps node)) ]
      @ rec_.extra)
    id (fun () ->
      let t0 = Unix.gettimeofday () in
      match Jobgraph.run node { Jobgraph.fetch; worker } with
      | v ->
          let model = Jobgraph.model node v in
          pace_off ~pace ~model ~elapsed:(Unix.gettimeofday () -. t0);
          let wall = Unix.gettimeofday () -. t0 in
          (match job_timeout with
          | Some limit when wall > limit ->
              let error = Printf.sprintf "job %s exceeded timeout (%.3fs > %.3fs)" id wall limit in
              job_failed rec_ ~job:id ~kind ~worker error;
              raise (Job_timeout error)
          | _ -> ());
          job_finished rec_ ~job:id ~kind (Jobgraph.phases node v);
          v
      | exception e ->
          job_failed rec_ ~job:id ~kind ~worker (Printexc.to_string e);
          raise e)

(* A passed deadline ends the run: it is never retried or quarantined. *)
let is_deadline = function Deadline_passed -> true | _ -> false

(* Retry a flaky job up to [max_retries] extra attempts before giving
   it up for good. *)
let run_node_retrying ~rec_ ~pace ~job_timeout ~max_retries ~worker ~fetch node =
  let rec attempt k =
    match run_node ~rec_ ~pace ~job_timeout ~worker ~fetch node with
    | v -> Ok (v, k)
    | exception e ->
        if k < max_retries && not (is_deadline e) then begin
          bump rec_ "engine.retries";
          Telemetry.instant rec_.tele ~cat:"engine" ~track:worker
            ~attrs:
              ([
                 ("job", Jobgraph.id node);
                 ("kind", Jobgraph.kind node);
                 ("attempt", string_of_int (k + 1));
                 ("error", Printexc.to_string e);
               ]
              @ rec_.extra)
            "retry";
          attempt (k + 1)
        end
        else Error (e, k)
  in
  attempt 0

let guard_fetch node fetch id =
  if not (List.mem id (Jobgraph.deps node)) then
    raise
      (Jobgraph.Invalid (Printf.sprintf "job %s fetched non-dependency %s" (Jobgraph.id node) id));
  fetch id

let quarantine_event ~rec_ node ~attempts ~error =
  bump rec_ "engine.quarantined";
  Telemetry.instant rec_.tele ~cat:"engine"
    ~attrs:
      ([
         ("job", Jobgraph.id node);
         ("kind", Jobgraph.kind node);
         ("attempts", string_of_int attempts);
         ("error", error);
       ]
      @ rec_.extra)
    "quarantined"

let sequential ~rec_ ~pace ~job_timeout ~max_retries ~keep_going g =
  let done_ = Hashtbl.create (2 * Jobgraph.size g) in
  let quarantined = Hashtbl.create 4 in
  List.iter
    (fun node ->
      match
        List.find_opt (fun d -> Hashtbl.mem quarantined d) (Jobgraph.deps node)
      with
      | Some d ->
          let error = Printf.sprintf "dependency %s quarantined" d in
          Hashtbl.replace quarantined (Jobgraph.id node) error;
          quarantine_event ~rec_ node ~attempts:0 ~error
      | None -> (
          let fetch = guard_fetch node (Hashtbl.find done_) in
          match run_node_retrying ~rec_ ~pace ~job_timeout ~max_retries ~worker:0 ~fetch node with
          | Ok (v, _) -> Hashtbl.replace done_ (Jobgraph.id node) v
          | Error (e, attempts) ->
              if keep_going && not (is_deadline e) then begin
                let error = Printexc.to_string e in
                Hashtbl.replace quarantined (Jobgraph.id node) error;
                quarantine_event ~rec_ node ~attempts:(attempts + 1) ~error
              end
              else raise e))
    (Jobgraph.order g);
  (done_, quarantined)

(* Shared scheduler state, all under [lock]. *)
type 'a pool = {
  lock : Mutex.t;
  wakeup : Condition.t;
  ready : 'a Jobgraph.node Queue.t;
  waiting : (string, int) Hashtbl.t;  (** unfinished dependency count per blocked node *)
  results : (string, 'a) Hashtbl.t;
  quarantined : (string, string) Hashtbl.t;
  mutable failure : exn option;
  mutable unfinished : int;
}

let parallel ~rec_ ~pace ~job_timeout ~max_retries ~keep_going ~workers g =
  let by_id = Hashtbl.create (2 * Jobgraph.size g) in
  List.iter (fun n -> Hashtbl.replace by_id (Jobgraph.id n) n) (Jobgraph.nodes g);
  let p =
    {
      lock = Mutex.create ();
      wakeup = Condition.create ();
      ready = Queue.create ();
      waiting = Hashtbl.create (2 * Jobgraph.size g);
      results = Hashtbl.create (2 * Jobgraph.size g);
      quarantined = Hashtbl.create 4;
      failure = None;
      unfinished = Jobgraph.size g;
    }
  in
  List.iter
    (fun node ->
      let n = List.length (Jobgraph.deps node) in
      if n = 0 then Queue.push node p.ready else Hashtbl.replace p.waiting (Jobgraph.id node) n)
    (Jobgraph.order g);
  let locked f =
    Mutex.lock p.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock p.lock) f
  in
  (* Quarantine a node and, transitively, every dependent still waiting
     on it (they can never become ready). Caller holds the lock. *)
  let rec quarantine node ~attempts ~error =
    let id = Jobgraph.id node in
    if not (Hashtbl.mem p.quarantined id) then begin
      Hashtbl.replace p.quarantined id error;
      quarantine_event ~rec_ node ~attempts ~error;
      p.unfinished <- p.unfinished - 1;
      List.iter
        (fun d ->
          if Hashtbl.mem p.waiting d then begin
            Hashtbl.remove p.waiting d;
            quarantine (Hashtbl.find by_id d) ~attempts:0
              ~error:(Printf.sprintf "dependency %s quarantined" id)
          end)
        (Jobgraph.dependents g id)
    end
  in
  let finish node outcome =
    locked (fun () ->
        (match outcome with
        | Ok v ->
            Hashtbl.replace p.results (Jobgraph.id node) v;
            p.unfinished <- p.unfinished - 1;
            List.iter
              (fun d ->
                match Hashtbl.find_opt p.waiting d with
                | None -> ()  (* already quarantined via another dependency *)
                | Some left ->
                    if left - 1 = 0 then begin
                      Hashtbl.remove p.waiting d;
                      Queue.push (Hashtbl.find by_id d) p.ready
                    end
                    else Hashtbl.replace p.waiting d (left - 1))
              (Jobgraph.dependents g (Jobgraph.id node))
        | Error (e, attempts) ->
            if keep_going && not (is_deadline e) then
              quarantine node ~attempts ~error:(Printexc.to_string e)
            else begin
              (match p.failure with None -> p.failure <- Some e | Some _ -> ());
              p.unfinished <- p.unfinished - 1
            end);
        Condition.broadcast p.wakeup)
  in
  let worker wid () =
    let rec loop () =
      let job =
        locked (fun () ->
            let rec take () =
              if p.failure <> None || p.unfinished = 0 then None
              else
                match Queue.take_opt p.ready with
                | Some node -> Some node
                | None ->
                    Condition.wait p.wakeup p.lock;
                    take ()
            in
            take ())
      in
      match job with
      | None -> ()
      | Some node ->
          let fetch = guard_fetch node (fun id -> locked (fun () -> Hashtbl.find p.results id)) in
          (match run_node_retrying ~rec_ ~pace ~job_timeout ~max_retries ~worker:wid ~fetch node with
          | Ok (v, _) -> finish node (Ok v)
          | Error (e, attempts) -> finish node (Error (e, attempts + 1)));
          loop ()
    in
    loop ()
  in
  let n_workers = max 1 (min workers (Jobgraph.size g)) in
  let domains = List.init (n_workers - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  (match p.failure with Some e -> raise e | None -> ());
  (p.results, p.quarantined)

let run ?(workers = 1) ?(pace = 0.0) ?job_timeout ?(max_retries = 0) ?(keep_going = false)
    ?deadline ?(telemetry = Telemetry.default) ?(attrs = []) g =
  let rec_ =
    {
      tele = telemetry;
      run = string_of_int (Atomic.fetch_and_add run_ids 1);
      extra = attrs;
      deadline;
    }
  in
  let t0 = Unix.gettimeofday () in
  check_deadline rec_;
  let results, quarantined =
    Telemetry.with_span telemetry ~cat:"engine"
      ~attrs:
        ([
           ("jobs", string_of_int (Jobgraph.size g));
           ("workers", string_of_int workers);
           ("run", rec_.run);
         ]
        @ attrs)
      "graph"
      (fun () ->
        if workers <= 1 then sequential ~rec_ ~pace ~job_timeout ~max_retries ~keep_going g
        else parallel ~rec_ ~pace ~job_timeout ~max_retries ~keep_going ~workers g)
  in
  let wall = Unix.gettimeofday () -. t0 in
  check_deadline rec_;
  {
    artifacts =
      List.filter_map
        (fun n ->
          Option.map (fun v -> (Jobgraph.id n, v)) (Hashtbl.find_opt results (Jobgraph.id n)))
        (Jobgraph.nodes g);
    quarantined =
      List.filter_map
        (fun n ->
          Option.map
            (fun e -> (Jobgraph.id n, e))
            (Hashtbl.find_opt quarantined (Jobgraph.id n)))
        (Jobgraph.nodes g);
    wall_seconds = wall;
  }
