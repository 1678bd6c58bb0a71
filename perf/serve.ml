(* The daemon path under an open loop: an in-process Service over a
   fresh on-disk store, two queue workers, one build domain each, and a
   single-threaded generator sending seeded Poisson arrivals. *)

module B = Pld_core.Build
module R = Pld_core.Runner
module L = Pld_core.Loader
module S = Pld_service.Service
module Traffic = Pld_service.Traffic
module Rng = Pld_util.Rng
module Json = Pld_telemetry.Json
module T = Pld_telemetry.Telemetry
module M = Measure

(* Low enough that two build domains stay well short of saturation
   even when a shared VM runs at half speed: latency is then the build
   path, not a queue whose length swings with the machine. *)
let rates = [ 10; 20 ]
let library_size = 24
let segment_s = 3.0

(* Pool ops 0..23 are the shared library every request draws its
   popular operators from. *)
let library = List.init library_size (fun i -> [ i ])

type request = {
  at : float;  (** seconds after the loop starts *)
  chain : int list;
  tenant : string;
  kind : string;  (** "resubmit", or "fresh+<n>" for a fresh op followed by n library ops *)
}

let zipf rng =
  let w = Array.init library_size (fun r -> 1.0 /. (float_of_int (r + 1) ** 1.1)) in
  let u = Rng.float rng (Array.fold_left ( +. ) 0.0 w) in
  let rec walk i acc = if i >= library_size - 1 || u < acc +. w.(i) then i else walk (i + 1) (acc +. w.(i)) in
  walk 0 0.0

(* [per_rate] arrivals at each rate, back to back. Every fifth request
   resubmits one of the 8 most recent chains from a random tenant, so
   dedup and cross-tenant hits happen; the others are fresh edits — a
   chain whose first op was never built, followed by 0, 1 or 2
   Zipf-popular library ops, the lengths drawn from a shuffle bag. The
   mix is the same for every seed; the seed picks arrival times, ops
   and tenants. *)
let schedule ?(rates = rates) ?(first_fresh = library_size) ~seed ~per_rate () =
  let rng = Rng.create seed in
  let fresh = ref first_fresh and recent = ref [] and t = ref 0.0 and out = ref [] and bag = ref [] in
  let tail_length () =
    if !bag = [] then begin
      let a = [| 0; 1; 2 |] in
      Rng.shuffle rng a;
      bag := Array.to_list a
    end;
    let n = List.hd !bag in
    bag := List.tl !bag;
    n
  in
  List.iter
    (fun rate ->
      for i = 1 to per_rate do
        t := !t -. (log (1.0 -. Rng.float rng 1.0) /. float_of_int rate);
        let chain, kind =
          if i mod 5 <> 0 || !recent = [] then begin
            let tail = tail_length () in
            let c = !fresh :: List.init tail (fun _ -> zipf rng) in
            incr fresh;
            recent := List.filteri (fun i _ -> i < 8) (c :: !recent);
            (c, Printf.sprintf "fresh+%d" tail)
          end
          else (List.nth !recent (Rng.int rng (List.length !recent)), "resubmit")
        in
        out := (rate, { at = !t; chain; tenant = Printf.sprintf "t%d" (Rng.int rng 4); kind }) :: !out
      done)
    rates;
  List.rev !out

let reference chain = fst (R.run_host (Traffic.chain_graph chain) ~inputs:(Traffic.chain_workload chain))

let start_service ~fp ~dir = S.create ~cache_dir:dir ~fp ~queue_workers:2 ~jobs:1 ()

let add_references references chains =
  List.iter (fun c -> if not (Hashtbl.mem references c) then Hashtbl.replace references c (reference c)) chains

(* The floorplan, the request schedule, and the KPN reference outputs
   of every chain the run will build. *)
let setup ~seed ~per_rate =
  let fp = Pld_fabric.Floorplan.u50 () in
  let sched = schedule ~seed ~per_rate () in
  let references = Hashtbl.create 512 in
  add_references references (library @ List.map (fun (_, rq) -> rq.chain) sched);
  (fp, sched, references)

(* The p90 limit of the rate ladder, in reference seconds: about 2.5x
   the pooled p90 the first runs measured. *)
let p90_limit_s = 0.1

(* The ladder's extra rung, run by traced runs only: 3 s at 40 rps. *)
let rung_rate = 40

(* Build every chain, one request at a time; [check] judges each
   outcome. One at a time because with both workers busy the pass's
   wall follows whichever core another tenant is using, which no
   calibration sees: warm passes then spread three times wider across
   runs. *)
let build_all svc tally what chains check =
  List.filter_map
    (fun c ->
      let name = what ^ " " ^ Traffic.chain_name c in
      tally.M.attempted <- tally.M.attempted + 1;
      match S.compile svc ~tenant:"lib" ~level:B.O1 (Traffic.chain_graph c) with
      | Ok o when o.S.o_graph = Traffic.chain_name c && check o -> Some (c, o)
      | Ok _ ->
          M.fail tally (name ^ ": wrong build");
          None
      | Error e ->
          M.fail tally (name ^ ": " ^ S.reject_message e);
          None)
    chains

(* What the run keeps of a served request: not the app, which the
   check after the loop fetches again from the store through one more
   daemon. *)
type served = {
  rate : int;
  chain : int list;
  kind : string;
  kernel_s : float;  (** calibration kernel time when it was submitted *)
  latency : float;
      (** how late it was submitted, plus the service's admission-to-completion seconds *)
}

let run ~work ~(size : Workload.size) ~seed ~layers =
  let tally = M.tally () in
  let per_rate = size.Workload.requests in
  let (fp, sched, references), setups = Workload.set_up size.Workload.setups (fun () -> setup ~seed ~per_rate) in
  let trace f = Option.iter f layers in
  let attribute_builds outcomes =
    trace (fun tr ->
        List.iter (fun (_, (o : S.outcome)) -> Layers.compile tr ~wall:o.S.o_build_seconds o.S.o_app) outcomes)
  in
  (* Cold: the library into an empty store through a fresh daemon. *)
  let repeat min f = Workload.repeat ~min ~seconds:size.Workload.phase_seconds f in
  let store = ref "" and built = ref [] in
  let cold =
    repeat size.Workload.cold (fun k ->
        M.rm_rf !store;
        store := M.fresh_dir (Filename.concat work (Printf.sprintf "store-%d" k));
        let svc = start_service ~fp ~dir:!store in
        let outcomes, wall, dt =
          M.op (fun () -> build_all svc tally "cold" library (fun o -> o.S.o_recompiled >= 1))
        in
        trace (fun tr -> Layers.cache tr (S.cache svc));
        S.shutdown svc;
        T.reset T.default;
        attribute_builds outcomes;
        built := outcomes;
        (wall, dt))
  in
  let store = !store in
  (* Warm: a restarted daemon over the same store serves the library
     from disk. *)
  let warm =
    repeat size.Workload.warm (fun _ ->
        let (outcomes, svc), wall, dt =
          M.op (fun () ->
              let svc = start_service ~fp ~dir:store in
              (build_all svc tally "warm" library (fun o -> o.S.o_recompiled = 0), svc))
        in
        trace (fun tr -> Layers.cache tr (S.cache svc));
        S.shutdown svc;
        T.reset T.default;
        attribute_builds outcomes;
        (wall, dt))
  in
  (* Deploy, run one frame and compare with the KPN reference. *)
  let check_run ~traced chain (o : S.outcome) =
    let app = o.S.o_app in
    let d, deploy_s = M.time (fun () -> L.deploy (Pld_platform.Card.create ()) app) in
    let r, run_s = M.time (fun () -> R.run d.L.app ~inputs:(Traffic.chain_workload chain)) in
    let ok, check_s = M.time (fun () -> Workload.same_outputs r.R.outputs (Hashtbl.find references chain)) in
    if traced then trace (fun tr -> Layers.run tr ~deploy_s ~run_s ~check_s app r);
    (r, ok)
  in
  let fmax = ref [] in
  let runs =
    repeat size.Workload.runs (fun k ->
        let (), wall, dt =
          M.op (fun () ->
              List.iter
                (fun (chain, o) ->
                  M.attempt tally ("run " ^ Traffic.chain_name chain) (fun () ->
                      let r, ok = check_run ~traced:true chain o in
                      if k = 0 then fmax := r.R.perf.R.fmax_mhz :: !fmax;
                      ok))
                !built)
        in
        T.reset T.default;
        (wall, dt))
  in
  built := [];
  (* The open loop, in segments of [segment_s] of the schedule, each
     served by a freshly started daemon over the same store: a daemon's
     domains land on the cores by lottery, and that placement moves its
     latencies by ±15% for its whole life, so the run pools several.
     The generator only submits; a collector thread awaits tickets in
     submission order. The generator calibrates only while nothing is
     outstanding and the next arrival is far enough off for the kernel
     to finish first; each latency is scaled by the kernel times current
     when it was submitted. *)
  let served = ref [] and refused = ref [] and attributed = ref [] in
  let build_busy = ref 0.0 and loop_wall = ref 0.0 and max_late = ref 0.0 in
  let segment requests =
    let svc = start_service ~fp ~dir:store in
    let outstanding = Atomic.make 0 in
    let pending = Queue.create () and mu = Mutex.create () and cond = Condition.create () in
    let finished = ref false in
    (* The collector writes [served], [refused], [attributed] and
       [build_busy]; they are read after it is joined. *)
    let collector =
      Thread.create
        (fun () ->
          let rec loop () =
            Mutex.lock mu;
            while Queue.is_empty pending && not !finished do
              Condition.wait cond mu
            done;
            let next = Queue.take_opt pending in
            Mutex.unlock mu;
            match next with
            | None -> ()
            | Some (rate, (rq : request), late, kernel_s, ticket) ->
                let name = "request " ^ Traffic.chain_name rq.chain in
                let result = S.await svc ticket in
                Atomic.decr outstanding;
                (match result with
                | Ok o when o.S.o_graph = Traffic.chain_name rq.chain ->
                    served :=
                      { rate; chain = rq.chain; kind = rq.kind; kernel_s; latency = late +. o.S.o_latency_seconds }
                      :: !served;
                    if not o.S.o_deduped then build_busy := !build_busy +. o.S.o_build_seconds;
                    if layers <> None then attributed := (late, o) :: !attributed
                | Ok _ -> refused := (name ^ ": wrong build") :: !refused
                | Error e -> refused := (name ^ ": " ^ S.reject_message e) :: !refused);
                loop ()
          in
          loop ())
        ()
    in
    let first = match requests with (_, rq) :: _ -> rq.at | [] -> 0.0 in
    let t0 = M.now () +. 0.05 in
    List.iter
      (fun (rate, rq) ->
        let due = t0 +. (rq.at -. first) in
        if Atomic.get outstanding = 0 then M.calibrate_if_stale ~until:due ();
        let wait = due -. M.now () in
        if wait > 0.0 then Unix.sleepf wait;
        tally.M.attempted <- tally.M.attempted + 1;
        Atomic.incr outstanding;
        match S.submit svc ~tenant:rq.tenant ~level:B.O1 (Traffic.chain_graph rq.chain) with
        | Ok ticket ->
            let late = M.now () -. due in
            max_late := Float.max !max_late late;
            Mutex.lock mu;
            Queue.add (rate, rq, late, M.kernel_now (), ticket) pending;
            Condition.signal cond;
            Mutex.unlock mu
        | Error e ->
            Atomic.decr outstanding;
            M.fail tally ("request " ^ Traffic.chain_name rq.chain ^ ": " ^ S.reject_message e))
      requests;
    Mutex.lock mu;
    finished := true;
    Condition.signal cond;
    Mutex.unlock mu;
    Thread.join collector;
    loop_wall := !loop_wall +. (M.now () -. t0);
    trace (fun tr -> Layers.cache tr (S.cache svc));
    S.shutdown svc;
    T.reset T.default
  in
  let rec segments = function
    | [] -> ()
    | (_, rq) :: _ as rest ->
        let now, later = List.partition (fun (_, r) -> r.at < rq.at +. segment_s) rest in
        segment now;
        segments later
  in
  segments sched;
  (* A traced run climbs one more rung of the rate ladder. *)
  trace (fun _ ->
      let rung =
        schedule ~rates:[ rung_rate ] ~first_fresh:(library_size + (2 * per_rate)) ~seed ~per_rate:(3 * rung_rate) ()
      in
      add_references references (List.map (fun (_, (rq : request)) -> rq.chain) rung);
      segment rung);
  List.iter (M.fail tally) (List.rev !refused);
  (* Every chain served, fetched again from the store through one more
     daemon, deployed and run against its reference. *)
  let svc = start_service ~fp ~dir:store in
  List.iter
    (fun chain ->
      M.attempt tally ("served run " ^ Traffic.chain_name chain) (fun () ->
          match S.compile svc ~tenant:"check" ~level:B.O1 (Traffic.chain_graph chain) with
          | Ok o -> o.S.o_recompiled = 0 && snd (check_run ~traced:false chain o)
          | Error e -> failwith (S.reject_message e)))
    (List.sort_uniq compare (List.map (fun s -> s.chain) !served));
  S.shutdown svc;
  let scaled = List.map (fun s -> (s, M.to_reference ~kernel_s:s.kernel_s s.latency)) !served in
  let lat keep = List.filter_map (fun (s, l) -> if keep s then Some l else None) scaled in
  let kinds = List.sort_uniq compare (List.map (fun s -> s.kind) !served) in
  let p50, p90 =
    M.grouped_percentiles (List.map (fun k -> lat (fun s -> s.kind = k && s.rate <> rung_rate)) kinds)
  in
  let n_main = List.length (lat (fun s -> s.rate <> rung_rate)) in
  let pct q keep = match lat keep with [] -> Json.Null | xs -> Json.Float (q xs) in
  let span = match List.rev sched with (_, last) :: _ -> last.at | [] -> 0.0 in
  let mean_gap = span /. float_of_int (max 1 (List.length sched)) in
  trace (fun tr ->
      List.iter
        (fun (late, (o : S.outcome)) -> Layers.request tr ~latency:(late +. o.S.o_latency_seconds) ~late o)
        !attributed;
      Layers.generator tr ~sent:(List.length sched) ~rejected:(List.length !refused)
        ~late_frac:(if mean_gap > 0.0 then !max_late /. mean_gap else 0.0);
      let meets r = match lat (fun s -> s.rate = r) with [] -> false | xs -> M.p90 xs <= p90_limit_s in
      Layers.service_rate tr
        (List.fold_left (fun acc r -> if meets r then r else acc) 0 (rates @ [ rung_rate ])));
  {
    Workload.metrics =
      [
        M.metric "setup_s" "s" ~samples:(List.length setups) (M.median setups);
        M.metric "compile_cold_s" "s" ~samples:(List.length cold) (M.median cold);
        M.metric "compile_warm_s" "s" ~samples:(List.length warm) (M.median warm);
        M.metric "run_s" "s" ~samples:(List.length runs) (M.median runs);
        M.metric "turnaround_p50_s" "s" ~samples:n_main p50;
        M.metric "turnaround_p90_s" "s" ~samples:n_main p90;
        M.metric "peak_rss_mb" "MB" (M.peak_rss_mb ());
        M.metric "fmax_mhz_geomean" "MHz" ~samples:(List.length !fmax) (M.geomean !fmax);
      ];
    attempted = tally.M.attempted;
    failed = tally.M.failed;
    errors = tally.M.errors;
    params =
      [
        ("level", Json.String "-O1");
        ("queue_workers", Json.Int 2);
        ("jobs", Json.Int 1);
        ("rates_rps", Json.List (List.map (fun r -> Json.Int r) rates));
        ("requests_per_rate", Json.Int per_rate);
        ("library_ops", Json.Int library_size);
        ("segment_s", Json.Float segment_s);
        ("gen_late_max_s", Json.Float !max_late);
        Workload.samples_json
          [ ("setup_s", setups); ("compile_cold_s", cold); ("compile_warm_s", warm); ("run_s", runs) ];
        ("worker_utilization", Json.Float (!build_busy /. (2.0 *. !loop_wall)));
        ( "request_latency_s",
          Json.Obj
            (List.concat_map
               (fun r ->
                 [
                   (Printf.sprintf "p50.r%d" r, pct M.median (fun s -> s.rate = r));
                   (Printf.sprintf "p90.r%d" r, pct M.p90 (fun s -> s.rate = r));
                 ])
               rates
            @ List.map (fun k -> ("p50." ^ k, pct M.median (fun s -> s.kind = k && s.rate <> rung_rate))) kinds) );
      ];
  }
