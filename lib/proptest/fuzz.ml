module B = Pld_core.Build
module Runner = Pld_core.Runner
module Json = Pld_telemetry.Json
module Fault = Pld_faults.Fault

type options = {
  seed : int;
  count : int;
  params : Gen.params;
  levels : B.level list;  (** union of every level named by [pairs] *)
  pairs : (B.level * B.level) list;
  corpus_dir : string option;  (** persist shrunk reproducers here *)
  fault_sweep : bool;
  shrink_budget : int;
  fuel : int option;
}

let dedup l = List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] l

let level_of_name s =
  match B.level_of_name s with
  | Ok B.Vitis -> Error (Printf.sprintf "level %S cannot be fuzzed (use O0, O1 or O3)" s)
  | r -> r

(* "O0:O3,O1:O3" -> [(O0, O3); (O1, O3)] *)
let parse_level_pairs s =
  let parse_pair p =
    match String.split_on_char ':' (String.trim p) with
    | [ a; b ] -> (
        match (level_of_name (String.trim a), level_of_name (String.trim b)) with
        | Ok la, Ok lb -> Ok (la, lb)
        | Error e, _ | _, Error e -> Error e)
    | _ -> Error (Printf.sprintf "bad level pair %S (expected LEVEL:LEVEL)" p)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> ( match parse_pair p with Ok pr -> go (pr :: acc) rest | Error e -> Error e)
  in
  go [] (String.split_on_char ',' s)

let levels_of_pairs pairs = dedup (List.concat_map (fun (a, b) -> [ a; b ]) pairs)

let default_options =
  let pairs = [ (B.O0, B.O3) ] in
  {
    seed = 42;
    count = 100;
    params = Gen.default_params;
    levels = levels_of_pairs pairs;
    pairs;
    corpus_dir = None;
    fault_sweep = false;
    shrink_budget = 150;
    fuel = None;
  }

type case_report = {
  r_index : int;
  r_digest : string;  (** content digest of (graph, workload) *)
  r_instances : int;
  r_failures : Oracle.failure list;
  r_shrunk_instances : int option;  (** after minimization, failing cases only *)
  r_saved : string option;  (** corpus path of the reproducer *)
}

type summary = {
  s_seed : int;
  s_count : int;
  s_pairs : (B.level * B.level) list;
  s_fault_sweep : bool;
  s_cases : case_report list;
  s_passed : int;
  s_failed : int;
}

(* The fault-injection sweep rides on the generator: the same graph is
   rebuilt at -O1 under a flaky page-compile job, a defective page and
   lossy NoC links — recovery (retry, page remap, softcore fallback,
   flit retransmission) must not change a single output token. *)
let fault_check ?fuel ~case_seed g ~inputs expected =
  let victim =
    match (g : Pld_ir.Graph.t).Pld_ir.Graph.instances with
    | i :: _ -> i.Pld_ir.Graph.inst_name
    | [] -> "none"
  in
  let spec =
    {
      Fault.empty with
      Fault.defective_pages = [ 1 ];
      flaky_jobs = [ ("op:" ^ victim, 1) ];
      drop_rate = 0.02;
    }
  in
  let faults = Fault.create ~seed:(Seeded.derive ~seed:case_seed "faults") spec in
  match
    Oracle.catching ~where:"fault-sweep" (fun () ->
        let cache = B.create_cache () in
        let app =
          B.compile ~cache
            ~telemetry:(Pld_telemetry.Telemetry.create ())
            ~faults ~max_retries:2 ~defective:spec.Fault.defective_pages
            (Pld_fabric.Floorplan.u50 ())
            g ~level:B.O1
        in
        Runner.run ?fuel ~faults app ~inputs)
  with
  | Error f -> [ f ]
  | Ok res -> Oracle.compare_streams ~where:"fault-sweep" expected res.Runner.outputs

let run ?(log = fun _ -> ()) (o : options) =
  let config =
    {
      Oracle.default_config with
      Oracle.levels = o.levels;
      fuel = o.fuel;
    }
  in
  let reports = ref [] in
  Seeded.cases ~seed:o.seed ~count:o.count (fun index _rng ->
      let c = Gen.case ~params:o.params ~seed:o.seed ~index () in
      let g = c.Gen.graph and inputs = c.Gen.inputs in
      let failures = Oracle.check ~config g ~inputs in
      let failures =
        if o.fault_sweep && failures = [] then
          match Oracle.catching ~where:"reference" (fun () -> Oracle.reference ?fuel:o.fuel g ~inputs) with
          | Error f -> [ f ]
          | Ok r ->
              fault_check ?fuel:o.fuel ~case_seed:c.Gen.case_seed g ~inputs r.Pld_kpn.Run_graph.outputs
        else failures
      in
      let shrunk_instances, saved =
        match failures with
        | [] -> (None, None)
        | f0 :: _ ->
            log (Printf.sprintf "case %d FAILED: %s — shrinking" index (Oracle.failure_to_string f0));
            let sc = { Shrink.s_graph = g; s_inputs = inputs; s_mutation = None } in
            let out = Shrink.shrink ~config ~budget:o.shrink_budget sc f0 in
            let small = out.Shrink.shrunk in
            let insts = List.length small.Shrink.s_graph.Pld_ir.Graph.instances in
            let saved =
              Option.map
                (fun dir ->
                  Corpus.save ~dir
                    ~name:(Printf.sprintf "fuzz-seed%d-case%d" o.seed index)
                    {
                      Corpus.note =
                        Printf.sprintf "seed %d case %d: %s" o.seed index
                          (Oracle.failure_to_string out.Shrink.failure);
                      expect = Some out.Shrink.failure.Oracle.f_class;
                      levels = o.levels;
                      graph = small.Shrink.s_graph;
                      workload = small.Shrink.s_inputs;
                      mutation = None;
                    })
                o.corpus_dir
            in
            (Some insts, saved)
      in
      reports :=
        {
          r_index = index;
          r_digest = Gen.digest g inputs;
          r_instances = List.length g.Pld_ir.Graph.instances;
          r_failures = failures;
          r_shrunk_instances = shrunk_instances;
          r_saved = saved;
        }
        :: !reports);
  let cases = List.rev !reports in
  let failed = List.length (List.filter (fun r -> r.r_failures <> []) cases) in
  {
    s_seed = o.seed;
    s_count = o.count;
    s_pairs = o.pairs;
    s_fault_sweep = o.fault_sweep;
    s_cases = cases;
    s_passed = List.length cases - failed;
    s_failed = failed;
  }

(* The summary contains no wall-clock, no paths, no host state: two
   runs with equal options must serialize to equal bytes. *)
let summary_json s =
  let pair_str (a, b) = Printf.sprintf "%s:%s" (B.level_name a) (B.level_name b) in
  Json.Obj
    [
      ("seed", Json.Int s.s_seed);
      ("count", Json.Int s.s_count);
      ("level_pairs", Json.List (List.map (fun p -> Json.String (pair_str p)) s.s_pairs));
      ("fault_sweep", Json.Bool s.s_fault_sweep);
      ("passed", Json.Int s.s_passed);
      ("failed", Json.Int s.s_failed);
      ( "cases",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 ([
                    ("index", Json.Int r.r_index);
                    ("digest", Json.String r.r_digest);
                    ("instances", Json.Int r.r_instances);
                    ( "failures",
                      Json.List
                        (List.map
                           (fun (f : Oracle.failure) ->
                             Json.Obj
                               [
                                 ("class", Json.String f.Oracle.f_class);
                                 ("where", Json.String f.Oracle.f_where);
                                 ("detail", Json.String f.Oracle.f_detail);
                               ])
                           r.r_failures) );
                  ]
                 @ (match r.r_shrunk_instances with
                   | None -> []
                   | Some n -> [ ("shrunk_instances", Json.Int n) ])))
             s.s_cases) );
    ]

let render s =
  let b = Buffer.create 256 in
  Printf.bprintf b "fuzz: seed %d, %d cases, pairs %s%s\n" s.s_seed s.s_count
    (String.concat ","
       (List.map (fun (a, bb) -> Printf.sprintf "%s:%s" (B.level_name a) (B.level_name bb)) s.s_pairs))
    (if s.s_fault_sweep then ", fault sweep on" else "");
  Printf.bprintf b "  passed %d / failed %d\n" s.s_passed s.s_failed;
  List.iter
    (fun r ->
      if r.r_failures <> [] then begin
        Printf.bprintf b "  case %d (%d instances%s):\n" r.r_index r.r_instances
          (match r.r_shrunk_instances with
          | Some n -> Printf.sprintf ", shrunk to %d" n
          | None -> "");
        List.iter (fun f -> Printf.bprintf b "    %s\n" (Oracle.failure_to_string f)) r.r_failures;
        Option.iter (fun p -> Printf.bprintf b "    reproducer: %s\n" p) r.r_saved
      end)
    s.s_cases;
  Buffer.contents b
