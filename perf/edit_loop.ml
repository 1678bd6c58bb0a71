(* The developer loop at one optimization level: compile the Rosetta
   suite cold and warm, deploy and run it, then edit one operator at a
   time and time each edit until its output is checked. *)

open Pld_ir
module B = Pld_core.Build
module R = Pld_core.Runner
module L = Pld_core.Loader
module Suite = Pld_rosetta.Suite
module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module M = Measure

type bench = {
  b : Suite.bench;
  pristine : Graph.t;
  inputs : (string * Value.t list) list;
  reference : (string * Value.t list) list;  (** the KPN interpreter's outputs *)
  mutable current : Graph.t;
  mutable last : B.app option;
  mutable turnarounds : float list;
}

let setup ~seed =
  let fp = Pld_fabric.Floorplan.u50 () in
  let benches =
    List.map
      (fun (b : Suite.bench) ->
        let g = b.Suite.graph Workload.hw in
        let inputs = b.Suite.workload () in
        let reference, _ = R.run_host g ~inputs in
        { b; pristine = g; inputs; reference; current = g; last = None; turnarounds = [] })
      Suite.all
  in
  let edits = Edits.create ~seed (List.map (fun x -> (x.b.Suite.name, x.pristine)) benches) in
  (fp, benches, edits)

(* A fresh card, the deploy, one frame and the check against both the
   bench's own reference and the KPN interpreter, timed apart. *)
let deploy_run x app =
  let d, deploy_s = M.time (fun () -> L.deploy (Pld_platform.Card.create ()) app) in
  let r, run_s = M.time (fun () -> R.run d.L.app ~inputs:x.inputs) in
  let ok, check_s =
    M.time (fun () ->
        x.b.Suite.check ~inputs:x.inputs r.R.outputs && Workload.same_outputs r.R.outputs x.reference)
  in
  (r, ok, deploy_s, run_s, check_s)

let run ~work ~(size : Workload.size) ~seed ~level ~layers =
  let tally = M.tally () in
  let (fp, benches, edits), setups = Workload.set_up size.setups (fun () -> setup ~seed) in
  (* Wall seconds measured so far, against the budget. *)
  let measured = ref 0.0 in
  let timed f =
    let r, wall, reference = M.op f in
    measured := !measured +. wall;
    (r, wall, reference)
  in
  let trace f = Option.iter f layers in
  (* One pldc invocation: a fresh cache handle on the on-disk store. *)
  let compile ~dir ?previous g =
    let (app, cache), wall, dt =
      timed (fun () ->
          let cache = B.create_cache ~dir () in
          (B.compile ~cache ~jobs:Workload.jobs ?previous fp g ~level, cache))
    in
    trace (fun tr ->
        Layers.compile tr ~wall ?previous app;
        Layers.cache tr cache);
    T.reset T.default;
    (app, wall, dt)
  in
  let run_checked x app =
    let (r, ok, deploy_s, run_s, check_s), wall, dt = timed (fun () -> deploy_run x app) in
    trace (fun tr -> Layers.run tr ~deploy_s ~run_s ~check_s app r);
    T.reset T.default;
    (r, ok, wall, dt)
  in
  (* One operation per bench; the pass's wall and reference seconds. *)
  let pass what f =
    let wall = ref 0.0 and reference = ref 0.0 in
    List.iter
      (fun x ->
        M.attempt tally (what ^ " " ^ x.b.Suite.name) (fun () ->
            let ok, w, r = f x in
            wall := !wall +. w;
            reference := !reference +. r;
            ok))
      benches;
    (!wall, !reference)
  in
  let repeat min f = Workload.repeat ~min ~seconds:size.phase_seconds f in
  let store = ref "" in
  let cold =
    repeat size.cold (fun k ->
        M.rm_rf !store;
        store := M.fresh_dir (Filename.concat work (Printf.sprintf "store-%d" k));
        pass "cold" (fun x ->
            let app, w, r = compile ~dir:!store x.pristine in
            x.last <- Some app;
            (app.B.report.B.cache_hits = 0, w, r)))
  in
  let store = !store in
  let warm =
    repeat size.warm (fun _ ->
        pass "warm" (fun x ->
            let app, w, r = compile ~dir:store x.pristine in
            (app.B.report.B.recompiled = 0, w, r)))
  in
  let fmax = ref [] in
  let runs =
    repeat size.runs (fun k ->
        pass "run" (fun x ->
            let r, ok, w, dt = run_checked x (Option.get x.last) in
            if k = 0 then fmax := r.R.perf.R.fmax_mhz :: !fmax;
            (ok, w, dt)))
  in
  (* Edits fill the rest of the budget, and get at least half of it
     however long the cold passes took. *)
  let n_edits = ref 0 and edits_from = !measured in
  while
    (!measured < size.seconds || !measured -. edits_from < size.seconds /. 2.0 || !n_edits < size.min_edits)
    && !n_edits < size.max_edits
  do
    incr n_edits;
    let e = Edits.next edits in
    let x = List.find (fun x -> x.b.Suite.name = e.Edits.bench) benches in
    let g = Edits.apply edits x.current e in
    M.attempt tally (Printf.sprintf "edit %d (%s/%s)" e.Edits.step e.Edits.bench e.Edits.inst) (fun () ->
        let previous = if level = B.O3 then x.last else None in
        let app, _, compile_s = compile ~dir:store ?previous g in
        let _, ok, _, run_s = run_checked x app in
        x.current <- g;
        x.last <- Some app;
        if ok then x.turnarounds <- (compile_s +. run_s) :: x.turnarounds;
        ok && app.B.report.B.recompiled >= 1)
  done;
  let edited = List.filter (fun x -> x.turnarounds <> []) benches in
  let p50, p90 = M.grouped_percentiles (List.map (fun x -> x.turnarounds) edited) in
  let samples = List.length in
  let n_turn = List.fold_left (fun acc x -> acc + samples x.turnarounds) 0 benches in
  {
    Workload.metrics =
      [
        M.metric "setup_s" "s" ~samples:(samples setups) (M.median setups);
        M.metric "compile_cold_s" "s" ~samples:(samples cold) (M.median cold);
        M.metric "compile_warm_s" "s" ~samples:(samples warm) (M.median warm);
        M.metric "run_s" "s" ~samples:(samples runs) (M.median runs);
        M.metric "turnaround_p50_s" "s" ~samples:n_turn p50;
        M.metric "turnaround_p90_s" "s" ~samples:n_turn p90;
        M.metric "peak_rss_mb" "MB" (M.peak_rss_mb ());
        M.metric "fmax_mhz_geomean" "MHz" ~samples:(samples !fmax) (M.geomean !fmax);
      ];
    attempted = tally.M.attempted;
    failed = tally.M.failed;
    errors = tally.M.errors;
    params =
      [
        ("level", Json.String (B.level_name level));
        ("jobs", Json.Int Workload.jobs);
        ("benches", Json.List (List.map (fun x -> Json.String x.b.Suite.name) benches));
        ("edits", Json.Int !n_edits);
        Workload.samples_json
          [ ("setup_s", setups); ("compile_cold_s", cold); ("compile_warm_s", warm); ("run_s", runs) ];
        ( "turnaround_median_s",
          Json.Obj
            (List.map
               (fun x -> (x.b.Suite.name, Json.Float (M.median x.turnarounds)))
               edited) );
      ];
  }
