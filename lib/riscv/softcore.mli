(** Boot a compiled operator on a PicoRV32-model softcore: loads text
    and data into unified memory and installs the firmware ap-runtime
    as the [ecall] handler. *)

val runtime : ?printf:(string -> unit) -> Codegen.program -> Cpu.t -> int
(** The firmware ap-runtime as an [ecall] handler: each call site is
    compiled once, from its static operand types, onto the reference
    evaluator's operations ({!Pld_ir.Interp.bin_kernel} and friends), so
    narrow operands move between slots and immediates without an
    arbitrary-width intermediate. Returns the site's cycle cost
    ({!Codegen.cost_of_site}). *)

val boot :
  ?profile:Cpu.profile ->
  stream_read:(int -> int32 option) ->
  stream_write:(int -> int32 -> bool) ->
  ?printf:(string -> unit) ->
  Codegen.program ->
  Cpu.t
(** Stream callbacks are indexed by the operator's port order (inputs
    and outputs numbered independently from 0). *)
