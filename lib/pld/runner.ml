open Pld_ir
module Net = Pld_kpn.Network
module Hls = Pld_hls.Hls_compile
module Fault = Pld_faults.Fault
module Telemetry = Pld_telemetry.Telemetry

type perf = {
  fmax_mhz : float;
  frame_cycles : int;
  ms_per_input : float;
  bottleneck : string;
  link_seconds : float;
}

type result = {
  outputs : (string * Value.t list) list;
  perf : perf;
  noc : Pld_noc.Traffic.result option;
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
  (cfg, Pld_noc.Traffic.replay net links)

(* The slowest (name, cycles) entry, the first one on a tie; ("-", 0)
   for none. *)
let slowest = List.fold_left (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc)) ("-", 0)

(* A softcore page as a process of the shared network: the instance's
   RV32 binary runs cycle by cycle against its stream ports, one
   scheduling quantum at a time. Returns the core (for its cycle count)
   and the process body. *)
let softcore ?core_profile ?faults ?pmu ~inst (s : Flow.o0_operator) (io : Pld_kpn.Run_graph.io) =
  let ports (l : Op.port list) = List.map (fun (p : Op.port) -> io.port p.port_name) l in
  let in_chans = ports s.Flow.op0.Op.inputs and out_chans = ports s.Flow.op0.Op.outputs in
  let cpu =
    Pld_riscv.Softcore.boot ?profile:core_profile s.Flow.program
      ~stream_read:(fun port ->
        match Net.try_read (List.nth in_chans port) with
        | Some v -> Some (Int32.of_int (Value.to_int (Value.bitcast Dtype.word v)))
        | None -> None)
      ~stream_write:(fun port w ->
        Net.try_write (List.nth out_chans port)
          (Value.of_int Dtype.word (Int32.to_int w land 0xFFFFFFFF)))
      ~printf:io.print
  in
  let hang_at = Option.bind faults (fun f -> Fault.hang_cycles f ~inst) in
  let trap_at = Option.bind faults (fun f -> Fault.trap_cycles f ~inst) in
  (* One PMU sample per scheduling quantum: cycles this core retired
     since its last slice, on its own cycle clock. *)
  let pmu_series =
    Option.map
      (fun p -> Pld_telemetry.Pmu.series p ~unit_:"cycles" (Printf.sprintf "softcore.%s.cycles" inst))
      pmu
  in
  let pmu_last = ref 0 in
  let pmu_tick () =
    match pmu_series with
    | Some s -> pmu_last := Pld_riscv.Cpu.pmu_tick cpu s ~last:!pmu_last
    | None -> ()
  in
  let quantum = 50_000 in
  let rec go () =
    (* Injected control faults, checked on the cycle clock: a trap
       flips the core into [Trapped] with its machine state; a hang
       spins without touching its streams until the watchdog calls it
       out. *)
    (match trap_at with
    | Some n when Pld_riscv.Cpu.cycles cpu >= n ->
        Pld_riscv.Cpu.inject_trap cpu "injected fault: softcore trap"
    | _ -> ());
    match hang_at with
    | Some n when Pld_riscv.Cpu.cycles cpu >= n ->
        Net.yield ();
        go ()
    | _ -> (
        let status = Pld_riscv.Cpu.run ~max_cycles:(Pld_riscv.Cpu.cycles cpu + quantum) cpu in
        pmu_tick ();
        match status with
        | Pld_riscv.Cpu.Halted -> ()
        | Pld_riscv.Cpu.Stalled ->
            Net.yield ();
            go ()
        | Pld_riscv.Cpu.Running ->
            Net.note_progress io.net;
            Net.yield ();
            go ()
        | Pld_riscv.Cpu.Trapped tr -> raise (Softcore_trap (inst, tr)))
  in
  (cpu, go)

(* The watchdog: deadlock or fuel exhaustion becomes a structured
   {!Stalled} diagnosis instead of a bare scheduler exception. *)
let watchdog e in_flight =
  let stalled stall_reason blocked =
    let channels =
      List.map (fun ((s : Net.channel_stats), occ) -> (s.Net.chan, occ, s.Net.block_events)) in_flight
    in
    Stalled { stall_reason; blocked; channels = List.sort compare channels }
  in
  match e with
  | Net.Deadlock blocked -> stalled "deadlock: no token moved in a full scheduling round" blocked
  | Net.Out_of_fuel { steps; live } ->
      stalled (Printf.sprintf "out of fuel after %d scheduler steps (hung operator?)" steps) live
  | e -> e

(* Every level runs the same network: softcore pages execute their
   binaries, every other instance the reference interpreter (its
   timing comes from the HLS schedule). Only the perf model differs:
   the frame is the slowest of the hardware bottleneck, the slowest
   softcore and the NoC replay (no NoC on a monolithic build), at the
   post-P&R Fmax on a monolithic build and the overlay clock
   otherwise. *)
let run ?fuel ?faults ?pmu ?core_profile (app : Build.app) ~inputs =
  let g = app.Build.graph in
  let hw_impls, fmax, paged =
    match app.Build.level with
    | Build.O3 | Build.Vitis ->
        let mono = Build.monolithic_exn app in
        (mono.Flow.impls, mono.Flow.pnr3.Pld_pnr.Pnr.timing.Pld_pnr.Sta.fmax_mhz, false)
    | Build.O0 | Build.O1 ->
        let hw = function n, Build.Hw_page h -> Some (n, h.Flow.impl) | _, Build.Soft_page _ -> None in
        (List.filter_map hw app.Build.operators, overlay_mhz, true)
  in
  let hw_cycles =
    List.map (fun (n, (impl : Hls.impl)) -> (n, impl.Hls.perf.Pld_hls.Sched.cycles_per_firing)) hw_impls
  in
  let cores = ref [] in
  let body (i : Graph.instance) io =
    match List.assoc_opt i.inst_name app.Build.operators with
    | Some (Build.Soft_page s) ->
        let cpu, process = softcore ?core_profile ?faults ?pmu ~inst:i.inst_name s io in
        cores := (i.inst_name, cpu) :: !cores;
        Some process
    | Some (Build.Hw_page _) | None -> None
  in
  (* Profiled runs of an all-hardware app are timed: the HLS schedule's
     cycles-per-firing pace the KPN scheduler and inputs stream through
     host DMA, so the stall counters reproduce the modeled fabric's
     queueing. A softcore keeps its own cycle clock, and both would
     change when its polls succeed and so its cycle count: with any
     softcore page the run stays untimed, and a profiled run reports
     the same frame as an unprofiled one. *)
  let has_softcore = List.exists (function _, Build.Soft_page _ -> true | _ -> false) app.Build.operators in
  let rates = if Option.is_some pmu && not has_softcore then hw_cycles else [] in
  let r = Pld_kpn.Run_graph.run ?fuel ?pmu ~rates ~body ~watchdog g ~inputs in
  let outputs = r.Pld_kpn.Run_graph.outputs and channel_stats = r.Pld_kpn.Run_graph.channel_stats in
  let softcore_cycles = List.map (fun (n, cpu) -> (n, Pld_riscv.Cpu.cycles cpu)) !cores in
  List.iter
    (fun (inst, cycles) ->
      Telemetry.max_gauge
        (Telemetry.gauge Telemetry.default (Printf.sprintf "softcore.%s.cycles" inst))
        (float_of_int cycles))
    softcore_cycles;
  let hw_name, hw_frame = slowest hw_cycles and soft_name, soft_frame = slowest softcore_cycles in
  let noc =
    if not paged then None
    else
      try Some (noc_replay ?faults ?pmu app channel_stats)
      with Pld_noc.Bft.Undelivered msg ->
        raise (Stalled { stall_reason = "linking network: " ^ msg; blocked = []; channels = [] })
  in
  let cfg_cycles, noc_cycles =
    match noc with Some (cfg, replay) -> (cfg, replay.Pld_noc.Traffic.cycles) | None -> (0, 0)
  in
  let cycles = max (max hw_frame soft_frame) noc_cycles in
  (* A tie names a softcore first, then the hardware; an all-hardware
     app names its hardware bottleneck even at zero cycles. *)
  let bottleneck =
    if has_softcore && cycles = soft_frame then soft_name ^ " (softcore)"
    else if cycles = hw_frame then hw_name
    else "linking-network bandwidth"
  in
  {
    outputs;
    perf =
      {
        fmax_mhz = fmax;
        frame_cycles = cycles;
        ms_per_input = ms_of_cycles cycles fmax +. dma_ms ~inputs ~outputs;
        bottleneck;
        link_seconds = ms_of_cycles cfg_cycles overlay_mhz /. 1000.0;
      };
    noc = Option.map snd noc;
    printed = r.Pld_kpn.Run_graph.printed;
    softcore_cycles;
    channel_stats;
  }

let run_host g ~inputs =
  let t0 = Unix.gettimeofday () in
  let r = Pld_kpn.Run_graph.run g ~inputs in
  (r.Pld_kpn.Run_graph.outputs, Unix.gettimeofday () -. t0)
