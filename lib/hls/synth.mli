(** Synthesis: lower an operator body to a {!Pld_netlist.Netlist.t} of
    placement macros with realistic resource vectors — the "syn" phase
    of Tab. 2.

    Connectivity is variable-mediated: each scalar local becomes a
    register bank, each array a memory macro; expression cells connect
    producers to the registers/ports they feed. The netlist carries no
    behaviour (the interpreter is the reference); it exists so that
    place & route works on the same structure a vendor flow would. *)

open Pld_ir

val split_oversized : Pld_netlist.Netlist.t -> Pld_netlist.Netlist.t
(** Decompose macros wider than one tile into chained slice-sized
    subcells (applied automatically by {!synthesize}; exposed for
    netlists assembled outside it, e.g. the -O1 operator packer). *)

val synthesize : Op.t -> Pld_netlist.Netlist.t
(** Raises [Invalid_argument] on operators {!Validate.check_operator}
    rejects. *)
