(* The edit–compile–run benchmark.

     perf run --workload edit-O1 --seed 3 [--seconds 20] [--trace 0|1] [--out F]
     perf check A.json B.json

   [run] measures one workload in this process and prints every metric
   with its unit, then one JSON line:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   [--trace 0] reports the end-to-end metrics, [--trace 1] the per-layer
   ones (see README.md). [--out F] appends the run, stamped with the
   source revision, machine, seed and parameters, to F as one JSON line
   (and writes the layer spans to F.<workload>.<seed>.trace.json when
   traced). [check] compares two such files. *)

open Cmdliner
module B = Pld_core.Build
module Json = Pld_telemetry.Json
module M = Perf.Measure

let workloads = [ ("edit-O0", Some B.O0); ("edit-O1", Some B.O1); ("edit-O3", Some B.O3); ("serve-O1", None) ]

let run_workload ~name ~seed ~seconds ~trace ~out =
  (* Scratch state lives under the working directory and is removed on
     the way out, whatever happens. *)
  if not (Sys.file_exists ".perf-work") then Sys.mkdir ".perf-work" 0o755;
  let work = M.fresh_dir (Filename.concat ".perf-work" (Printf.sprintf "%s-%d" name (Unix.getpid ()))) in
  Fun.protect
    ~finally:(fun () ->
      M.rm_rf work;
      try Sys.rmdir ".perf-work" with Sys_error _ -> ())
  @@ fun () ->
  let layers = if trace then Some (Perf.Layers.create ~store_dir:(Filename.concat work "trace-store")) else None in
  let size = Perf.Workload.timed seconds in
  let r =
    match List.assoc name workloads with
    | Some level -> Perf.Edit_loop.run ~work ~size ~seed ~level ~layers
    | None -> Perf.Serve.run ~work ~size ~seed ~layers
  in
  let metrics =
    match layers with
    | None -> r.Perf.Workload.metrics
    | Some tr -> Perf.Layers.metrics tr
  in
  List.iter prerr_endline (List.rev r.Perf.Workload.errors);
  List.iter
    (fun (m : M.metric) -> Printf.printf "%-30s %14.6g %-10s (n=%d)\n" m.M.name m.M.value m.M.unit_ m.M.samples)
    metrics;
  let metric_json ?(samples = false) (m : M.metric) =
    ( m.M.name,
      Json.Obj
        ([ ("value", Json.Float m.M.value); ("unit", Json.String m.M.unit_) ]
        @ if samples then [ ("samples", Json.Int m.M.samples) ] else []) )
  in
  let verdict =
    [
      ("correct", Json.Bool (r.Perf.Workload.failed = 0));
      ("attempted", Json.Int r.Perf.Workload.attempted);
      ("failed", Json.Int r.Perf.Workload.failed);
    ]
  in
  Option.iter
    (fun file ->
      let doc =
        Json.Obj
          ([
             ("workload", Json.String name);
             ("seed", Json.Int seed);
             ("seconds", Json.Float seconds);
             ("trace", Json.Bool trace);
             ("stamp", Perf.Stamp.json ());
             ("params", Json.Obj r.Perf.Workload.params);
             ("speed_factor", Json.Float (M.speed_factor ()));
           ]
          @ verdict
          @ [ ("metrics", Json.Obj (List.map (metric_json ~samples:true) metrics)) ])
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
          output_string oc (Json.to_string doc ^ "\n"));
      Option.iter
        (fun tr -> Perf.Layers.write_trace tr ~file:(Printf.sprintf "%s.%s.%d.trace.json" file name seed))
        layers)
    out;
  print_endline (Json.to_string (Json.Obj (verdict @ [ ("metrics", Json.Obj (List.map metric_json metrics)) ])))

let trace_conv =
  let parse = function
    | "0" | "false" -> Ok false
    | "1" | "true" -> Ok true
    | s -> Error (`Msg (Printf.sprintf "--trace expects 0 or 1, got %S" s))
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (if b then "1" else "0"))

let run_cmd =
  let workload =
    Arg.(required & opt (some (enum (List.map (fun (n, _) -> (n, n)) workloads))) None & info [ "workload" ] ~doc:"Workload to run.")
  in
  let seed = Arg.(required & opt (some int) None & info [ "seed" ] ~doc:"Seed of the edit or request sequence.") in
  let seconds =
    Arg.(value & opt float 20.0 & info [ "seconds" ] ~doc:"Measurement budget in seconds.")
  in
  let trace = Arg.(value & opt trace_conv false & info [ "trace" ] ~doc:"1 reports per-layer metrics instead of end-to-end ones.") in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Append the stamped run to this file.") in
  Cmd.v (Cmd.info "run" ~doc:"Measure one workload.")
    Term.(
      const (fun name seed seconds trace out -> run_workload ~name ~seed ~seconds ~trace ~out)
      $ workload $ seed $ seconds $ trace $ out)

let check_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "A" else "B")) in
  Cmd.v (Cmd.info "check" ~doc:"Compare two sets of runs against the bounds in ./BENCHMARK.json.")
    Term.(
      const (fun parent change ->
          if not (Perf.Check.run ~benchmark:"BENCHMARK.json" ~parent ~change) then Stdlib.exit 1)
      $ file 0 $ file 1)

let () = exit (Cmd.eval (Cmd.group (Cmd.info "perf" ~doc:"The edit-compile-run benchmark.") [ run_cmd; check_cmd ]))
