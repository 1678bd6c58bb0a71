(** The three compile flows of §6: -O0 (softcore, Fig. 5), -O1
    (separate per-page place & route, Fig. 6), -O3 (monolithic,
    Fig. 7), plus the undecomposed Vitis baseline.

    Phase seconds combine the measured wall-clock of our own algorithms
    with fixed per-invocation overheads modelling backend-tool startup
    and context loading (the cost the abstract shell shrinks but never
    removes); the two components are kept separate in {!phase_times}. *)

open Pld_ir

exception Build_error of string
(** A build artifact or graph piece that should exist does not — e.g.
    asking a paged app for its monolithic bitstream, or an instance
    name that is not in the graph. The message names the app/graph,
    the level, and the missing piece. Re-exported as
    [Build.Build_error]. *)

val find_instance_exn : context:string -> Graph.t -> string -> Graph.instance
(** Like [Graph.find_instance] but raises {!Build_error} naming the
    [context], the graph, and the known instances. *)

type phase_times = {
  hls : float;
  syn : float;
  pnr : float;
  bitgen : float;
  overhead : float;  (** modeled tool fixed costs, documented in DESIGN.md *)
}

val total_seconds : phase_times -> float

type o1_operator = {
  inst : string;
  op : Op.t;
  page : int;
  impl : Pld_hls.Hls_compile.impl;
  pnr : Pld_pnr.Pnr.result;
  xclbin : Pld_platform.Xclbin.t;
  times : phase_times;
}

type o0_operator = {
  inst0 : string;
  op0 : Op.t;
  page0 : int;
  program : Pld_riscv.Codegen.program;
  elf : Pld_riscv.Elf.packed;
  xclbin0 : Pld_platform.Xclbin.t;
  riscv_seconds : float;
}

type o3_app = {
  graph : Graph.t;
  impls : (string * Pld_hls.Hls_compile.impl) list;
  merged : Pld_netlist.Netlist.t;
  pnr3 : Pld_pnr.Pnr.result;
  xclbin3 : Pld_platform.Xclbin.t;
  times3 : phase_times;
}

val noc_leaves : Pld_fabric.Floorplan.t -> int
(** Leaves the overlay's NoC instantiates: leaf 0 (DMA) plus one per
    page (page id = leaf id); [Bft.create] rounds this up to 4-ary
    tree capacity. The single source of truth for the leaf count. *)

val overlay_xclbin : Pld_fabric.Floorplan.t -> Pld_platform.Xclbin.t

val compile_o1_operator :
  ?seed:int ->
  ?impl:Pld_hls.Hls_compile.impl ->
  Pld_fabric.Floorplan.t ->
  page:int ->
  inst:string ->
  Op.t ->
  o1_operator
(** HLS → operator packer (leaf interface) → page-scoped P&R with the
    abstract shell → partial xclbin. [impl] supplies an already-run HLS
    result for this same operator (the build engine's HLS job feeds
    both page assignment and the page compile), skipping the re-run. *)

val compile_o0_operator : page:int -> inst:string -> Op.t -> o0_operator

val compile_o3 :
  ?seed:int ->
  ?vitis_baseline:bool ->
  ?previous:Pld_pnr.Pnr.result ->
  ?pnr_seeds:int list ->
  Pld_fabric.Floorplan.t ->
  Graph.t ->
  o3_app
(** [vitis_baseline] compiles the undecomposed design (direct wires
    instead of inter-operator FIFOs), the paper's "Vitis flow" column.

    [previous] (a prior monolithic P&R of the same region — typically
    the last build's [pnr3]) routes the compile through
    [Pnr.implement_delta]: placement reuse and rip-up-only rerouting
    for the edited netlist, falling back to scratch when the edit is
    too large. [pnr_seeds] with two or more distinct seeds instead
    races that many annealing seeds on domains and keeps the best
    post-STA timing ([Pnr.implement_multi]) — for cold compiles;
    [previous] wins when both are given. *)
