module Telemetry = Pld_telemetry.Telemetry

type 'a result = {
  artifacts : (string * 'a) list;
  quarantined : (string * string) list;
  wall_seconds : float;
}

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
   recording its span (failures are recorded and re-raised). *)
let run_node ~rec_ ~pace ~worker ~fetch node =
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
          job_finished rec_ ~job:id ~kind (Jobgraph.phases node v);
          v
      | exception e ->
          job_failed rec_ ~job:id ~kind ~worker (Printexc.to_string e);
          raise e)

(* A passed deadline ends the run: it is never retried or quarantined. *)
let is_deadline = function Deadline_passed -> true | _ -> false

(* Retry a flaky job up to [max_retries] extra attempts before giving
   it up for good. *)
let run_node_retrying ~rec_ ~pace ~max_retries ~worker ~fetch node =
  let rec attempt k =
    match run_node ~rec_ ~pace ~worker ~fetch node with
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

module Ranks = Set.Make (Int)

(* Nodes are known by their rank in {!Jobgraph.order}; a free worker
   takes the lowest ready rank, so a single worker runs the graph
   exactly in that order. The calling domain is worker 0. All mutable
   state below is under [lock]. *)
let schedule ~rec_ ~pace ~max_retries ~keep_going ~workers g =
  let by_rank = Array.of_list (Jobgraph.order g) in
  let n = Array.length by_rank in
  let rank = Hashtbl.create (2 * n) in
  Array.iteri (fun r node -> Hashtbl.replace rank (Jobgraph.id node) r) by_rank;
  let lock = Mutex.create () and wakeup = Condition.create () in
  (* Unfinished dependencies per node: a node is ready at zero, and a
     node behind a failed one never gets there. *)
  let left = Array.map (fun node -> List.length (Jobgraph.deps node)) by_rank in
  let ready = ref (Ranks.of_seq (Seq.filter (fun r -> left.(r) = 0) (Seq.init n Fun.id))) in
  let results = Hashtbl.create (2 * n) and quarantined = Hashtbl.create 4 in
  let failure = ref None and unfinished = ref n in
  let locked f = Mutex.protect lock f in
  (* Quarantine a node and, transitively, every dependent (none of
     them can ever become ready). Caller holds the lock. *)
  let rec quarantine r ~attempts ~error =
    let node = by_rank.(r) in
    let id = Jobgraph.id node in
    if not (Hashtbl.mem quarantined id) then begin
      Hashtbl.replace quarantined id error;
      quarantine_event ~rec_ node ~attempts ~error;
      decr unfinished;
      List.iter
        (fun d ->
          quarantine (Hashtbl.find rank d) ~attempts:0
            ~error:(Printf.sprintf "dependency %s quarantined" id))
        (Jobgraph.dependents g id)
    end
  in
  let finish r outcome =
    locked (fun () ->
        (match outcome with
        | Ok v ->
            let id = Jobgraph.id by_rank.(r) in
            Hashtbl.replace results id v;
            decr unfinished;
            List.iter
              (fun d ->
                let d = Hashtbl.find rank d in
                left.(d) <- left.(d) - 1;
                if left.(d) = 0 then ready := Ranks.add d !ready)
              (Jobgraph.dependents g id)
        | Error (e, attempts) ->
            if keep_going && not (is_deadline e) then
              quarantine r ~attempts ~error:(Printexc.to_string e)
            else begin
              if Option.is_none !failure then failure := Some e;
              decr unfinished
            end);
        Condition.broadcast wakeup)
  in
  let worker wid () =
    let rec loop () =
      let job =
        locked (fun () ->
            let rec take () =
              if Option.is_some !failure || !unfinished = 0 then None
              else
                match Ranks.min_elt_opt !ready with
                | Some r ->
                    ready := Ranks.remove r !ready;
                    Some r
                | None ->
                    Condition.wait wakeup lock;
                    take ()
            in
            take ())
      in
      match job with
      | None -> ()
      | Some r ->
          let node = by_rank.(r) in
          let fetch = guard_fetch node (fun id -> locked (fun () -> Hashtbl.find results id)) in
          (match run_node_retrying ~rec_ ~pace ~max_retries ~worker:wid ~fetch node with
          | Ok (v, _) -> finish r (Ok v)
          | Error (e, attempts) -> finish r (Error (e, attempts + 1)));
          loop ()
    in
    loop ()
  in
  let helpers = List.init (max 1 (min workers n) - 1) (fun i -> Domain_pool.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain_pool.join helpers;
  Option.iter raise !failure;
  (results, quarantined)

let run ?(workers = 1) ?(pace = 0.0) ?(max_retries = 0) ?(keep_going = false)
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
      (fun () -> schedule ~rec_ ~pace ~max_retries ~keep_going ~workers g)
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
