(** Static timing analysis over the placed-and-routed netlist.

    Sequential cells (registers, memories, ports, control) are timing
    endpoints; combinational cells (arith/mul/div/logic) chain. The
    critical path is the longest cell+net delay between endpoints. *)

module N := Pld_netlist.Netlist

type result = {
  critical_path_ns : float;
  fmax_mhz : float;  (** min(clock target, 1000 / critical path) *)
  critical_cells : string list;  (** cell names on the worst path *)
}

val analyze : ?clock_target_mhz:float -> N.t -> net_delay_ns:float array -> result
(** [net_delay_ns] is indexed by net id (from routing, or estimates). *)
