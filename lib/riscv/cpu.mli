(** Cycle-level PicoRV32-class core model.

    Unified instruction/data memory, memory-mapped stream ports wired
    to the page's leaf interface, unpipelined multi-cycle timing (CPI
    ≈ 3-5), and an [ecall] hook the firmware ap-runtime plugs into.

    MMIO map (word accesses):
    - [0x1000_0000 + 8*i] — read stream port i (blocks while empty)
    - [0x1000_0100 + 8*i] — write stream port i (blocks while full)
    - [0x1000_0200]       — store halts the core *)

(** Core timing profile: the overlay processor menu of the paper's
    future work (§9). [picorv32] is the paper's prototype (unpipelined,
    CPI 3-5); [pipelined] models a ZipCPU/VexRiscv-class in-order
    pipeline with the same ISA and a faster ap-runtime. *)
type profile = {
  profile_name : string;
  c_alu : int;
  c_mem : int;
  c_jump : int;
  c_taken : int;
  c_not_taken : int;
  c_mul : int;
  c_div : int;
  ecall_scale : float;  (** multiplier on firmware-runtime cycle costs *)
}

val picorv32 : profile
val pipelined : profile

type trap = {
  trap_msg : string;
  trap_pc : int;  (** pc at the faulting instruction *)
  trap_instr : int32;  (** faulting instruction word (0 if pc unmapped) *)
  trap_cycle : int;  (** model cycle count at the trap *)
}

type status =
  | Running
  | Stalled  (** blocked on a stream port; retry after tokens move *)
  | Halted
  | Trapped of trap  (** illegal instruction / bad access, with machine state *)

val describe_trap : trap -> string
(** ["<msg> (pc=0x.. instr=0x.. cycle=..)"]. *)

type t
(** A core: unified memory, 32 registers, status, timing counters and
    the table of predecoded instructions. Memory is written only
    through {!write_word} and {!load_words}, which keep that table in
    step with the text. *)

val mmio_in_base : int
val mmio_out_base : int
val mmio_halt : int

val create :
  ?mem_kb:int ->
  ?profile:profile ->
  ?stream_read:(int -> int32 option) ->
  ?stream_write:(int -> int32 -> bool) ->
  ?on_ecall:(t -> int) ->
  unit ->
  t
(** [mem_kb] defaults to 192 (the paper's maximum page memory);
    [profile] to {!picorv32}. [on_ecall] performs an [ecall] and
    returns the cycles to charge for it (scaled by the profile's
    [ecall_scale]). *)

val load_words : t -> addr:int -> int32 array -> unit
val read_word : t -> int -> int32
val write_word : t -> int -> int32 -> unit
val read_reg : t -> int -> int32

val cycles : t -> int
(** Model cycles at the 200 MHz overlay clock. *)

val retired : t -> int
(** Instructions completed. *)

val inject_trap : t -> string -> unit
(** Force the core into [Trapped] with its current machine state —
    fault injection's hook. *)

val run : ?max_cycles:int -> t -> status
(** Execute until halt, trap, or stall. Returns the final status
    ([Running] only if [max_cycles] expired). A stall charges one
    cycle; the next [run] retries the blocked instruction. [Failure]
    from a stream callback, and [Failure] or [Invalid_argument] from
    [on_ecall], become [Trapped] at the faulting instruction with no
    cycles charged for it. *)

val pmu_tick : t -> Pld_telemetry.Pmu.series -> last:int -> int
(** Periodic PMU sampling hook for a driver that runs the core in
    quanta: records the cycles retired since [last] as one sample on
    the core's own cycle clock and returns the new mark (the current
    cycle count) for the next tick. Nothing is recorded when no cycles
    elapsed. *)
