(** Boot a compiled operator on a PicoRV32-model softcore: loads text
    and data into unified memory and installs the firmware ap-runtime
    as the [ecall] handler. *)

val boot :
  ?mem_kb:int ->
  ?profile:Cpu.profile ->
  stream_read:(int -> int32 option) ->
  stream_write:(int -> int32 -> bool) ->
  ?printf:(string -> unit) ->
  Codegen.program ->
  Cpu.t
(** Stream callbacks are indexed by the operator's port order (inputs
    and outputs numbered independently from 0). *)
