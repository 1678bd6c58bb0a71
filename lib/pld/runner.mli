(** Execution engines and the performance models behind Tab. 3 and
    Figs. 10–11.

    Every level runs one KPN network ({!Pld_kpn.Run_graph.run}):
    softcore pages join it as processes that execute their real RV32
    binaries cycle by cycle, every other instance runs the reference
    interpreter. What differs is the timing model, and one formula
    covers it: the frame is the slowest of the hardware bottleneck
    (the HLS schedule's cycles per firing), the slowest softcore and
    the NoC replay's drain time.

    - -O3 / Vitis: a monolithic build has no NoC and no softcore; its
      clock is the post-P&R Fmax.
    - -O1: compute runs at the 200 MHz overlay clock and every stream
      crosses the linking network; a page that fell back to a softcore
      build joins the frame as a softcore.
    - -O0: every page is a softcore, at the overlay clock.

    Runs are supervised at every level: a run that deadlocks or
    exhausts its fuel raises {!Stalled} with a diagnosis (who is
    blocked, what sits in each channel) rather than a bare scheduler
    exception, and a softcore that traps raises {!Softcore_trap} with
    the core's machine state. *)

open Pld_ir

type perf = {
  fmax_mhz : float;
  frame_cycles : int;
  ms_per_input : float;
  bottleneck : string;
  link_seconds : float;  (** NoC configuration (linking) time, -O0/-O1 *)
}

type result = {
  outputs : (string * Value.t list) list;
  perf : perf;
  noc : Pld_noc.Traffic.result option;
      (** the frame's NoC replay — delivered, dropped, corrupted and
          retransmitted flits; [None] on a monolithic (-O3/Vitis) build *)
  printed : (string * string) list;
  softcore_cycles : (string * int) list;  (** per softcore instance *)
  channel_stats : Pld_kpn.Network.channel_stats list;
      (** per-channel token/occupancy/stall figures from the functional
          run — the raw material of back-pressure attribution *)
}

exception Softcore_trap of string * Pld_riscv.Cpu.trap
(** A softcore instance trapped during co-simulation: instance name
    plus the core's pc / instruction word / cycle count. *)

type stall_diagnosis = {
  stall_reason : string;  (** deadlock vs. fuel exhaustion *)
  blocked : string list;  (** instances that never finished *)
  channels : (string * int * int) list;
      (** per channel: (name, tokens in flight, block events) *)
}

exception Stalled of stall_diagnosis
(** The co-simulation watchdog: raised in place of
    [Pld_kpn.Network.Deadlock] / [Out_of_fuel] with enough structure
    to tell a hung operator from an underfed input. A frame whose
    traffic the linking network cannot deliver
    ([Pld_noc.Bft.Undelivered], e.g. under a link drop rate too high
    to make progress) stalls too, with a [stall_reason] naming the
    linking network and no blocked instances. *)

val describe_stall : stall_diagnosis -> string

val noc_links : Build.app -> Pld_kpn.Network.channel_stats list -> Pld_noc.Traffic.link list
(** One logical NoC link per graph channel (leaf = page id, DMA on
    leaf 0); token counts come from a functional run's channel stats
    (0 when absent). Used by the loader and the perf model. *)

val noc_replay :
  ?faults:Pld_faults.Fault.t ->
  ?pmu:Pld_telemetry.Pmu.t ->
  Build.app ->
  Pld_kpn.Network.channel_stats list ->
  int * Pld_noc.Traffic.result
(** Replay the frame's traffic on a fresh NoC whose leaf count is
    derived from the app's floorplan ([Flow.noc_leaves]) — structurally
    identical to the deployed overlay's network. Returns (config
    cycles, replay result). With [faults], drop/corrupt rates apply and
    the result's fault counters are meaningful. [pmu] receives the
    replay network's windowed link/delay/deflection series. Raises
    [Pld_noc.Bft.Undelivered] when the traffic cannot be delivered. *)

val run :
  ?fuel:int ->
  ?faults:Pld_faults.Fault.t ->
  ?pmu:Pld_telemetry.Pmu.t ->
  ?core_profile:Pld_riscv.Cpu.profile ->
  Build.app ->
  inputs:(string * Value.t list) list ->
  result
(** Raises on validation failures; {!Stalled} when the run wedges;
    {!Softcore_trap} when an injected (or real) trap fires. [faults]
    drives softcore hang/trap injection and the NoC replay's link
    faults. [pmu] collects windowed fabric series from every engine the
    flow exercises (KPN scheduler, NoC replay, softcores) — the input
    to {!Fabric_profile.of_run}; it changes no modeled figure.
    [core_profile] (default {!Pld_riscv.Cpu.picorv32}) is the timing
    profile of every softcore page. *)

val run_host : Graph.t -> inputs:(string * Value.t list) list -> (string * Value.t list) list * float
(** The "X86 g++" column: execute the application natively on the host
    (the reference interpreter) and measure wall-clock seconds. *)

val emulation_slowdown : float
(** Modeled Vitis hardware-emulation slowdown over native host
    execution (documented constant). *)
