open Pld_ir

type result = {
  outputs : (string * Value.t list) list;
  channel_stats : Network.channel_stats list;
  op_counters : (string * Interp.counters) list;
  printed : (string * string) list;
}

type io = { net : Network.t; port : string -> Network.channel; print : string -> unit }

(* Registration order is the scheduler's round-robin order; [order]
   lets the differential tests prove the Kahn property (outputs do not
   depend on it). Unlisted instances keep their graph order, after the
   listed ones. *)
let ordered_instances ?order (g : Graph.t) =
  match order with
  | None -> g.Graph.instances
  | Some names ->
      let listed =
        List.filter_map (fun n -> List.find_opt (fun i -> i.Graph.inst_name = n) g.instances) names
      in
      let rest = List.filter (fun i -> not (List.mem i.Graph.inst_name names)) g.instances in
      listed @ rest

let run ?fuel ?(rounds = 1) ?(processor = false) ?order ?pmu ?(rates = [])
    ?(body = fun _ _ -> None) ?(watchdog = fun e _ -> e) (g : Graph.t) ~inputs =
  Validate.check_graph_exn g;
  let module Telemetry = Pld_telemetry.Telemetry in
  Telemetry.with_span Telemetry.default ~cat:"cosim"
    ~attrs:
      [
        ("instances", string_of_int (List.length g.instances));
        ("rounds", string_of_int rounds);
      ]
    ("run:" ^ g.graph_name)
  @@ fun () ->
  let net = Network.create ?pmu () in
  let channels = Hashtbl.create 16 in
  List.iter
    (fun (c : Graph.channel) ->
      (* Graph outputs accumulate the full result; internal channels and
         inputs keep their declared bounded depth (inputs are preloaded
         with [push], which ignores capacity, mirroring host DMA that
         streams in as space frees up). *)
      let capacity = if List.mem c.chan_name g.outputs then max_int else c.depth in
      Hashtbl.replace channels c.chan_name (Network.channel net ~capacity ~name:c.chan_name c.elem))
    g.channels;
  let chan name = Hashtbl.find channels name in
  (* An untimed run preloads the whole workload ([push] ignores
     capacity — host DMA modeled as infinitely fast). A timed run
     instead streams each input through a host DMA process that
     respects the channel's declared hardware depth, so back-pressure
     against the host is observable in the stall counters — by the
     Kahn property the outputs are identical either way. *)
  List.iter
    (fun (name, values) ->
      match Hashtbl.find_opt channels name with
      | None -> invalid_arg ("Run_graph.run: unknown input channel " ^ name)
      | Some c -> (
          match rates with
          | [] -> List.iter (Network.push c) values
          | _ :: _ ->
              Network.add_process net ~name:("host-dma-in:" ^ name) (fun () ->
                  List.iter (Network.write c) values)))
    inputs;
  let printed = ref [] in
  (* Relative service rates: [rates] gives each instance its modeled
     cycles-per-firing (the HLS schedule's number); an instance [k]
     times slower than the fastest yields [k-1] extra scheduler rounds
     per token consumed. This turns the untimed round-robin scheduler
     into a rate-correct one, so the stall counters reproduce the
     queueing signature of the modeled fabric — a full input queue
     upstream of the slow operator, starvation downstream of it.
     Outputs are unchanged by the Kahn property. *)
  let pace =
    match List.filter (fun (_, c) -> c > 0) rates with
    | [] -> fun _ -> 1
    | positive ->
        let fastest = List.fold_left (fun a (_, c) -> min a c) max_int positive in
        fun name ->
          (match List.assoc_opt name rates with
          | Some c when c > 0 -> max 1 ((c + (fastest / 2)) / fastest)
          | _ -> 1)
  in
  let counters =
    List.map
      (fun (i : Graph.instance) ->
        let c = Interp.fresh_counters () in
        let port p = chan (List.assoc p i.bindings) in
        let print text = printed := (i.inst_name, text) :: !printed in
        let interpreted () =
          let p = pace i.Graph.inst_name in
          (* Ports resolve to channels here, once per instance. *)
          let io : Interp.io =
            {
              read =
                (fun name ->
                  let ch = port name in
                  fun () ->
                    let v = Network.read ch in
                    (* Pacing yields model compute time, not blocking — they
                       count as progress so they can't trip the deadlock
                       detector while every peer happens to be waiting. *)
                    for _ = 2 to p do
                      Network.note_progress net;
                      Network.yield ()
                    done;
                    v);
              write =
                (fun name ->
                  let ch = port name in
                  fun v -> Network.write ch v);
              printf =
                (fun msg args ->
                  print (msg ^ String.concat "" (List.map (fun v -> " " ^ Value.to_string v) args)));
            }
          in
          let fire = Interp.compile ~processor ~counters:c i.op io in
          fun () ->
            for _ = 1 to rounds do
              fire ()
            done
        in
        let process =
          match body i { net; port; print } with Some p -> p | None -> interpreted ()
        in
        Network.add_process net ~name:i.inst_name process;
        (i.inst_name, c))
      (ordered_instances ?order g)
  in
  (try Network.run ?fuel net with
  | (Network.Deadlock _ | Network.Out_of_fuel _) as e ->
      let in_flight (s : Network.channel_stats) = (s, Network.occupancy (chan s.chan)) in
      raise (watchdog e (List.map in_flight (Network.stats net))));
  let outputs = List.map (fun name -> (name, Network.drain (chan name))) g.outputs in
  { outputs; channel_stats = Network.stats net; op_counters = counters; printed = List.rev !printed }

let run_words ?fuel ?rounds g ~inputs =
  let to_vals l = List.map (fun x -> Value.of_int Dtype.word x) l in
  let r =
    run ?fuel ?rounds g ~inputs:(List.map (fun (n, l) -> (n, to_vals l)) inputs)
  in
  List.map (fun (n, vs) -> (n, List.map Value.to_int vs)) r.outputs
