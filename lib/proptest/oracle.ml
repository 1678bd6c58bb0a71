open Pld_ir
module B = Pld_core.Build
module Runner = Pld_core.Runner
module Run_graph = Pld_kpn.Run_graph
module Network = Pld_kpn.Network
module Traffic = Pld_noc.Traffic
module Floorplan = Pld_fabric.Floorplan
module Telemetry = Pld_telemetry.Telemetry
module Bits = Pld_apfixed.Bits

type failure = { f_class : string; f_where : string; f_detail : string }

let failure_to_string f = Printf.sprintf "[%s @ %s] %s" f.f_class f.f_where f.f_detail

type config = {
  levels : B.level list;
  fuel : int option;
  check_permutation : bool;
  check_cache : bool;
  check_noc : bool;
}

let default_config =
  { levels = [ B.O0; B.O3 ]; fuel = None; check_permutation = true; check_cache = true; check_noc = true }

(* ---------- stream comparison ---------- *)

(* Streams carry 32-bit words at every level; compare raw patterns so
   dtype bookkeeping differences can never mask (or fake) a bug. *)
let word_hex v = Bits.to_hex (Value.to_bits (Value.bitcast Dtype.word v))

let compare_streams ~where expected got =
  List.concat_map
    (fun (chan, exp_vs) ->
      match List.assoc_opt chan got with
      | None ->
          [ { f_class = "missing-output"; f_where = where; f_detail = Printf.sprintf "channel %s absent" chan } ]
      | Some got_vs ->
          if List.length exp_vs <> List.length got_vs then
            [
              {
                f_class = "length-mismatch";
                f_where = where;
                f_detail =
                  Printf.sprintf "channel %s: expected %d tokens, got %d" chan (List.length exp_vs)
                    (List.length got_vs);
              };
            ]
          else
            List.concat
              (List.mapi
                 (fun i (e, g) ->
                   if word_hex e = word_hex g then []
                   else
                     [
                       {
                         f_class = "mismatch";
                         f_where = where;
                         f_detail =
                           Printf.sprintf "channel %s token %d: expected 0x%s, got 0x%s" chan i (word_hex e)
                             (word_hex g);
                       };
                     ])
                 (List.combine exp_vs got_vs)))
    expected

(* ---------- structured failure capture ---------- *)

let classify ~where = function
  | Validate.Invalid errs ->
      {
        f_class = "invalid-graph";
        f_where = where;
        f_detail = String.concat "; " (List.map Validate.error_to_string errs);
      }
  | Network.Deadlock blocked ->
      { f_class = "deadlock"; f_where = where; f_detail = String.concat "," blocked }
  | Network.Out_of_fuel { steps; live } ->
      {
        f_class = "out-of-fuel";
        f_where = where;
        f_detail = Printf.sprintf "%d steps, live: %s" steps (String.concat "," live);
      }
  | Runner.Stalled d -> { f_class = "stall"; f_where = where; f_detail = Runner.describe_stall d }
  | Runner.Softcore_trap (inst, _) ->
      { f_class = "trap"; f_where = where; f_detail = Printf.sprintf "softcore %s trapped" inst }
  | B.Build_error m | Pld_core.Flow.Build_error m ->
      { f_class = "build-error"; f_where = where; f_detail = m }
  | Pld_riscv.Codegen.Unsupported m -> { f_class = "unsupported"; f_where = where; f_detail = m }
  | e -> { f_class = "exception"; f_where = where; f_detail = Printexc.to_string e }

let catching ~where f = match f () with v -> Ok v | exception e -> Error (classify ~where e)

(* ---------- reference semantics ---------- *)

let reference ?fuel g ~inputs = Run_graph.run ?fuel g ~inputs

(* ---------- the differential check ---------- *)

let compile_app ?cache ?faults ?defective ~level g =
  let cache = match cache with Some c -> c | None -> B.create_cache () in
  (* A private telemetry sink: fuzzing must not flood the process-wide
     one, and hermetic runs keep summaries reproducible. *)
  B.compile ~cache ~telemetry:(Telemetry.create ()) ?faults ?defective (Floorplan.u50 ()) g ~level

let run_level ?fuel ?faults ~level g ~inputs =
  catching ~where:(B.level_name level) (fun () ->
      let app = compile_app ?faults ~level g in
      (app, Runner.run ?fuel ?faults app ~inputs))

(* The level's run already replayed its frame on the NoC; its flit
   counts must add up to every token of the reference frame. *)
let noc_exactly_once ~where app (stats : Network.channel_stats list) (res : Traffic.result) =
  let links = Runner.noc_links app stats in
  if links = [] then []
  else
    let expected = Traffic.total_tokens links in
    List.concat
      [
        (if res.Traffic.delivered = expected then []
         else
           [
             {
               f_class = "noc-delivery";
               f_where = where;
               f_detail = Printf.sprintf "delivered %d flits of %d" res.Traffic.delivered expected;
             };
           ]);
        (if res.Traffic.dropped = 0 && res.Traffic.corrupted = 0 then []
         else
           [
             {
               f_class = "noc-loss";
               f_where = where;
               f_detail =
                 Printf.sprintf "dropped %d / corrupted %d flits without fault injection" res.Traffic.dropped
                   res.Traffic.corrupted;
             };
           ]);
      ]

let check ?(config = default_config) g ~inputs =
  match catching ~where:"reference" (fun () -> reference ?fuel:config.fuel g ~inputs) with
  | Error f -> [ f ]
  | Ok ref_res ->
      let expected = ref_res.Run_graph.outputs in
      let permutation =
        if not config.check_permutation then []
        else
          let order = List.rev_map (fun (i : Graph.instance) -> i.inst_name) g.Graph.instances in
          match
            catching ~where:"reference-permuted" (fun () ->
                Run_graph.run ?fuel:config.fuel ~order g ~inputs)
          with
          | Error f -> [ f ]
          | Ok permuted ->
              compare_streams ~where:"scheduler-permutation" expected permuted.Run_graph.outputs
      in
      let cache_level = match config.levels with [] -> B.O1 | l :: _ -> l in
      let per_level =
        List.concat_map
          (fun level ->
            let where = B.level_name level in
            match run_level ?fuel:config.fuel ~level g ~inputs with
            | Error f -> [ f ]
            | Ok (app, res) ->
                List.concat
                  [
                    compare_streams ~where expected res.Runner.outputs;
                    (match res.Runner.noc with
                    | Some noc when config.check_noc ->
                        noc_exactly_once ~where:("noc@" ^ where) app ref_res.Run_graph.channel_stats noc
                    | _ -> []);
                    (if config.check_cache && level = cache_level then
                       match
                         catching ~where:("cache@" ^ where) (fun () ->
                             let cache = B.create_cache () in
                             let _first = compile_app ~cache ~level g in
                             let second = compile_app ~cache ~level g in
                             let res2 = Runner.run ?fuel:config.fuel second ~inputs in
                             (second, res2))
                       with
                       | Error f -> [ f ]
                       | Ok (second, res2) ->
                           (if second.B.report.B.recompiled = 0 then []
                            else
                              [
                                {
                                  f_class = "cache-key";
                                  f_where = "cache@" ^ where;
                                  f_detail =
                                    Printf.sprintf
                                      "identical source recompiled %d artifacts on a warm cache"
                                      second.B.report.B.recompiled;
                                };
                              ])
                           @ compare_streams ~where:("cache@" ^ where) expected res2.Runner.outputs
                     else []);
                  ])
          config.levels
      in
      permutation @ per_level

(* ---------- mutant checking ---------- *)

(* The mutation is applied *after* linking: the reference sees the
   clean source, the deployed artifact has two stream endpoints
   swapped. An empty result means the mutant escaped the oracle. *)
let check_mutated ?(config = default_config) mutation g ~inputs =
  match catching ~where:"reference" (fun () -> reference ?fuel:config.fuel g ~inputs) with
  | Error f ->
      (* The clean case must work for a mutant verdict to mean anything;
         report it as caught-by-construction. *)
      [ f ]
  | Ok ref_res ->
      let expected = ref_res.Run_graph.outputs in
      List.concat_map
        (fun level ->
          let where = "mutant@" ^ B.level_name level in
          match
            catching ~where (fun () ->
                let app = compile_app ~level g in
                let mutated = { app with B.graph = Mutate.apply mutation app.B.graph } in
                Runner.run ?fuel:config.fuel mutated ~inputs)
          with
          | Error f -> [ f ]
          | Ok res -> compare_streams ~where expected res.Runner.outputs)
        config.levels

let caught ?config mutation g ~inputs = check_mutated ?config mutation g ~inputs <> []
