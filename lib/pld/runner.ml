open Pld_ir
module Net = Pld_kpn.Network
module Hls = Pld_hls.Hls_compile
module Fp = Pld_fabric.Floorplan
module Fault = Pld_faults.Fault

type perf = {
  fmax_mhz : float;
  frame_cycles : int;
  ms_per_input : float;
  bottleneck : string;
  link_seconds : float;
  noc_dropped : int;
  noc_corrupted : int;
  noc_retransmitted : int;
}

type result = {
  outputs : (string * Value.t list) list;
  perf : perf;
  printed : (string * string) list;
  softcore_cycles : (string * int) list;
  channel_stats : Net.channel_stats list;
}

exception Softcore_trap of string * Pld_riscv.Cpu.trap

type stall_diagnosis = {
  stall_reason : string;
  blocked : string list;
  channels : (string * int * int) list;
}

exception Stalled of stall_diagnosis

let describe_stall d =
  String.concat "\n"
    (Printf.sprintf "stalled: %s" d.stall_reason
    :: Printf.sprintf "  blocked instances: %s" (String.concat ", " d.blocked)
    :: List.map
         (fun (name, occ, blocks) ->
           Printf.sprintf "  channel %-16s %d token(s) in flight, %d block event(s)" name occ blocks)
         d.channels)

let emulation_slowdown = 20.0
let overlay_mhz = 200.0

let ms_of_cycles cycles mhz = float_of_int cycles /. (mhz *. 1000.0)

(* Host DMA cost for one frame: every flow pays it (§2.5's PCIe path). *)
let dma_ms ~inputs ~outputs =
  let count l = List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 l in
  1000.0
  *. Pld_platform.Dma.frame_seconds Pld_platform.Dma.default ~words_in:(count inputs)
       ~words_out:(count outputs)

(* NoC link list for an app: one logical stream per graph channel, with
   globally unique stream ids and token counts from the functional run. *)
let noc_links (app : Build.app) channel_stats =
  let g = app.Build.graph in
  let leaf_of inst =
    match List.assoc_opt inst app.Build.assignment with
    | Some page -> page (* page id = NoC leaf *)
    | None -> Pld_platform.Card.dma_leaf
  in
  List.mapi
    (fun idx (c : Graph.channel) ->
      let src = match Graph.producer g c.chan_name with Some p -> leaf_of p | None -> Pld_platform.Card.dma_leaf in
      let dst = match Graph.consumer g c.chan_name with Some q -> leaf_of q | None -> Pld_platform.Card.dma_leaf in
      let tokens =
        match List.find_opt (fun (s : Net.channel_stats) -> s.Net.chan = c.chan_name) channel_stats with
        | Some s -> s.Net.tokens
        | None -> 0
      in
      { Pld_noc.Traffic.src_leaf = src; src_stream = idx; dst_leaf = dst; dst_stream = idx; tokens })
    g.channels

(* Replay the frame's traffic on a NoC structurally identical to the
   deployed overlay's (leaf count derived from the floorplan, fault
   injector shared) — the timing model for the linking network,
   including retransmission cost on lossy links. *)
let noc_replay ?faults ?pmu (app : Build.app) channel_stats =
  let links = noc_links app channel_stats in
  let net = Pld_noc.Bft.create ~leaves:(Flow.noc_leaves app.Build.fp) ?faults ?pmu () in
  let cfg = Pld_noc.Traffic.config_cycles net links in
  let r =
    Pld_noc.Traffic.replay net
      (List.filter (fun (l : Pld_noc.Traffic.link) -> l.tokens > 0 && l.src_leaf <> l.dst_leaf) links)
  in
  (cfg, r)

let hw_bottleneck impls =
  List.fold_left
    (fun (best_n, best_c) (n, (impl : Hls.impl)) ->
      let c = impl.Hls.perf.Pld_hls.Sched.cycles_per_firing in
      if c > best_c then (n, c) else (best_n, best_c))
    ("-", 0) impls

(* Mixed co-simulation: softcore instances execute their RV32 binaries
   against the KPN channels; hardware instances run the reference
   interpreter (their timing comes from the HLS schedule). The run is
   supervised by a watchdog: deadlock or fuel exhaustion becomes a
   structured {!Stalled} diagnosis instead of a bare exception. *)
let run_cosim ?fuel ?faults ?pmu (app : Build.app) ~inputs =
  let g = app.Build.graph in
  let module Telemetry = Pld_telemetry.Telemetry in
  Telemetry.with_span Telemetry.default ~cat:"cosim"
    ~attrs:[ ("graph", g.Graph.graph_name) ]
    ("cosim:" ^ g.Graph.graph_name)
  @@ fun () ->
  let net = Net.create ?pmu () in
  let channels = Hashtbl.create 16 in
  List.iter
    (fun (c : Graph.channel) ->
      let capacity = if List.mem c.chan_name g.outputs then max_int else c.depth in
      Hashtbl.replace channels c.chan_name (Net.channel net ~capacity ~name:c.chan_name c.elem))
    g.channels;
  let chan name = Hashtbl.find channels name in
  List.iter (fun (name, values) -> List.iter (Net.push (chan name)) values) inputs;
  let printed = ref [] in
  let cores = ref [] in
  List.iter
    (fun (inst, compiled) ->
      match compiled with
      | Build.Soft_page (s : Flow.o0_operator) ->
          let i = Flow.find_instance_exn ~context:"Runner.run_cosim" g inst in
          let in_chans =
            List.map (fun (p : Op.port) -> chan (List.assoc p.port_name i.bindings)) s.Flow.op0.Op.inputs
          in
          let out_chans =
            List.map (fun (p : Op.port) -> chan (List.assoc p.port_name i.bindings)) s.Flow.op0.Op.outputs
          in
          let cpu =
            Pld_riscv.Softcore.boot s.Flow.program
              ~stream_read:(fun port ->
                match Net.try_read (List.nth in_chans port) with
                | Some v -> Some (Int32.of_int (Value.to_int (Value.bitcast Dtype.word v)))
                | None -> None)
              ~stream_write:(fun port w ->
                Net.try_write (List.nth out_chans port)
                  (Value.of_int Dtype.word (Int32.to_int w land 0xFFFFFFFF)))
              ~printf:(fun msg -> printed := (inst, msg) :: !printed)
          in
          cores := (inst, cpu) :: !cores;
          let hang_at = Option.bind faults (fun f -> Fault.hang_cycles f ~inst) in
          let trap_at = Option.bind faults (fun f -> Fault.trap_cycles f ~inst) in
          (* One PMU sample per scheduling quantum: cycles this core
             retired since its last slice, on its own cycle clock. *)
          let pmu_series =
            Option.map
              (fun p ->
                Pld_telemetry.Pmu.series p ~unit_:"cycles"
                  (Printf.sprintf "softcore.%s.cycles" inst))
              pmu
          in
          let pmu_last = ref 0 in
          let pmu_tick () =
            match pmu_series with
            | Some s -> pmu_last := Pld_riscv.Cpu.pmu_tick cpu s ~last:!pmu_last
            | None -> ()
          in
          Net.add_process net ~name:inst (fun () ->
              let quantum = 50_000 in
              let rec go () =
                (* Injected control faults, checked on the cycle clock:
                   a trap flips the core into [Trapped] with its machine
                   state; a hang spins without touching its streams
                   until the watchdog calls it out. *)
                (match trap_at with
                | Some n when Pld_riscv.Cpu.cycles cpu >= n ->
                    Pld_riscv.Cpu.inject_trap cpu "injected fault: softcore trap"
                | _ -> ());
                match hang_at with
                | Some n when Pld_riscv.Cpu.cycles cpu >= n ->
                    Net.yield ();
                    go ()
                | _ -> (
                    let status =
                      Pld_riscv.Cpu.run ~max_cycles:(Pld_riscv.Cpu.cycles cpu + quantum) cpu
                    in
                    pmu_tick ();
                    match status with
                    | Pld_riscv.Cpu.Halted -> ()
                    | Pld_riscv.Cpu.Stalled ->
                        Net.yield ();
                        go ()
                    | Pld_riscv.Cpu.Running ->
                        Net.note_progress net;
                        Net.yield ();
                        go ()
                    | Pld_riscv.Cpu.Trapped tr -> raise (Softcore_trap (inst, tr)))
              in
              go ())
      | Build.Hw_page (h : Flow.o1_operator) ->
          let i = Flow.find_instance_exn ~context:"Runner.run_cosim" g inst in
          let io : Interp.io =
            {
              read = (fun port -> Net.read (chan (List.assoc port i.bindings)));
              write = (fun port v -> Net.write (chan (List.assoc port i.bindings)) v);
              printf = (fun _ _ -> ());
            }
          in
          Net.add_process net ~name:inst (fun () -> Interp.run_operator h.Flow.op io))
    app.Build.operators;
  let diagnose ~reason ~blocked =
    let stats = Net.stats net in
    let chans =
      Hashtbl.fold
        (fun name ch acc ->
          let blocks =
            match List.find_opt (fun (s : Net.channel_stats) -> s.Net.chan = name) stats with
            | Some s -> s.Net.block_events
            | None -> 0
          in
          (name, Net.occupancy ch, blocks) :: acc)
        channels []
      |> List.sort compare
    in
    raise (Stalled { stall_reason = reason; blocked; channels = chans })
  in
  (try Net.run ?fuel net with
  | Net.Deadlock blocked ->
      diagnose ~reason:"deadlock: no token moved in a full scheduling round" ~blocked
  | Net.Out_of_fuel { steps; live } ->
      diagnose
        ~reason:(Printf.sprintf "out of fuel after %d scheduler steps (hung operator?)" steps)
        ~blocked:live);
  let outputs = List.map (fun name -> (name, Net.drain (chan name))) g.outputs in
  let softcore_cycles = List.map (fun (n, cpu) -> (n, Pld_riscv.Cpu.cycles cpu)) !cores in
  List.iter
    (fun (inst, cycles) ->
      Telemetry.max_gauge
        (Telemetry.gauge Telemetry.default (Printf.sprintf "softcore.%s.cycles" inst))
        (float_of_int cycles))
    softcore_cycles;
  (outputs, Net.stats net, List.rev !printed, softcore_cycles)

(* Profiled runs get the HLS schedule's cycles-per-firing as relative
   service rates, so the KPN scheduler reproduces the modeled fabric's
   queueing behaviour (Run_graph paces each instance accordingly);
   unprofiled runs keep the flat-out untimed schedule. *)
let rates_for pmu impls =
  match pmu with
  | None -> []
  | Some _ ->
      List.map
        (fun (n, (impl : Hls.impl)) -> (n, impl.Hls.perf.Pld_hls.Sched.cycles_per_firing))
        impls

let run ?fuel ?faults ?pmu (app : Build.app) ~inputs =
  let g = app.Build.graph in
  match app.Build.level with
  | Build.O3 | Build.Vitis -> begin
      let mono = Build.monolithic_exn app in
      let r = Pld_kpn.Run_graph.run ?fuel ?pmu ~rates:(rates_for pmu mono.Flow.impls) g ~inputs in
      let bname, bcycles = hw_bottleneck mono.Flow.impls in
      let fmax = mono.Flow.pnr3.Pld_pnr.Pnr.timing.Pld_pnr.Sta.fmax_mhz in
      {
        outputs = r.Pld_kpn.Run_graph.outputs;
        perf =
          {
            fmax_mhz = fmax;
            frame_cycles = bcycles;
            ms_per_input =
              ms_of_cycles bcycles fmax +. dma_ms ~inputs ~outputs:r.Pld_kpn.Run_graph.outputs;
            bottleneck = bname;
            link_seconds = 0.0;
            noc_dropped = 0;
            noc_corrupted = 0;
            noc_retransmitted = 0;
          };
        printed = r.Pld_kpn.Run_graph.printed;
        softcore_cycles = [];
        channel_stats = r.Pld_kpn.Run_graph.channel_stats;
      }
    end
  | Build.O1 when List.for_all (fun (_, c) -> match c with Build.Hw_page _ -> true | Build.Soft_page _ -> false) app.Build.operators
    -> begin
      let impls =
        List.filter_map
          (fun (n, c) -> match c with Build.Hw_page h -> Some (n, h.Flow.impl) | Build.Soft_page _ -> None)
          app.Build.operators
      in
      let r = Pld_kpn.Run_graph.run ?fuel ?pmu ~rates:(rates_for pmu impls) g ~inputs in
      let bname, bcycles = hw_bottleneck impls in
      let cfg_cycles, replay = noc_replay ?faults ?pmu app r.Pld_kpn.Run_graph.channel_stats in
      let noc_cycles = replay.Pld_noc.Traffic.cycles in
      let cycles = max bcycles noc_cycles in
      let bottleneck = if noc_cycles > bcycles then "linking-network bandwidth" else bname in
      {
        outputs = r.Pld_kpn.Run_graph.outputs;
        perf =
          {
            fmax_mhz = overlay_mhz;
            frame_cycles = cycles;
            ms_per_input =
              ms_of_cycles cycles overlay_mhz +. dma_ms ~inputs ~outputs:r.Pld_kpn.Run_graph.outputs;
            bottleneck;
            link_seconds = ms_of_cycles cfg_cycles overlay_mhz /. 1000.0;
            noc_dropped = replay.Pld_noc.Traffic.dropped;
            noc_corrupted = replay.Pld_noc.Traffic.corrupted;
            noc_retransmitted = replay.Pld_noc.Traffic.retransmitted;
          };
        printed = r.Pld_kpn.Run_graph.printed;
        softcore_cycles = [];
        channel_stats = r.Pld_kpn.Run_graph.channel_stats;
      }
    end
  | Build.O0 | Build.O1 -> begin
      (* Mixed or all-softcore: co-simulate. *)
      let outputs, channel_stats, printed, softcore_cycles =
        run_cosim ?fuel ?faults ?pmu app ~inputs
      in
      let hw_impls =
        List.filter_map
          (fun (n, c) -> match c with Build.Hw_page h -> Some (n, h.Flow.impl) | Build.Soft_page _ -> None)
          app.Build.operators
      in
      let hw_name, hw_cycles = hw_bottleneck hw_impls in
      let soft_name, soft_cycles =
        List.fold_left (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc)) ("-", 0) softcore_cycles
      in
      let cfg_cycles, replay = noc_replay ?faults ?pmu app channel_stats in
      let noc_cycles = replay.Pld_noc.Traffic.cycles in
      let cycles = max (max hw_cycles soft_cycles) noc_cycles in
      let bottleneck =
        if cycles = soft_cycles then soft_name ^ " (softcore)"
        else if cycles = hw_cycles then hw_name
        else "linking-network bandwidth"
      in
      {
        outputs;
        perf =
          {
            fmax_mhz = overlay_mhz;
            frame_cycles = cycles;
            ms_per_input = ms_of_cycles cycles overlay_mhz +. dma_ms ~inputs ~outputs;
            bottleneck;
            link_seconds = ms_of_cycles cfg_cycles overlay_mhz /. 1000.0;
            noc_dropped = replay.Pld_noc.Traffic.dropped;
            noc_corrupted = replay.Pld_noc.Traffic.corrupted;
            noc_retransmitted = replay.Pld_noc.Traffic.retransmitted;
          };
        printed;
        softcore_cycles;
        channel_stats;
      }
    end

let run_host g ~inputs =
  let t0 = Unix.gettimeofday () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  (r.Pld_kpn.Run_graph.outputs, Unix.gettimeofday () -. t0)
