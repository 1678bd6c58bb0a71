(** Traffic replay on the linking network: the -O1 performance model's
    bandwidth component.

    Each logical stream link carries a known token count per frame
    (measured by the functional KPN run). Every leaf has a single
    injection port (one 32-bit flit per cycle), so operators that need
    more bandwidth than one port serialize here — the paper's main
    source of -O1 slowdown (§7.4).

    Under link fault injection the replay is loss-tolerant: lost or
    CRC-rejected flits return to their source leaf and are
    retransmitted with priority over fresh tokens, so every token is
    eventually delivered and the cost shows up as extra cycles. *)

type link = {
  src_leaf : int;
  src_stream : int;
  dst_leaf : int;
  dst_stream : int;
  tokens : int;  (** flits to move across this link per frame *)
}

type result = {
  cycles : int;  (** to deliver every token, retransmissions included *)
  delivered : int;
  deflections : int;
  dropped : int;  (** flits lost on links during the replay *)
  corrupted : int;  (** flits CRC-rejected at their destination *)
  retransmitted : int;  (** sender re-injections *)
  avg_latency : float;
}

val total_tokens : link list -> int
(** Sum of per-link token counts — the exactly-once delivery oracle
    compares {!result.delivered} against this. *)

val active : link -> bool
(** A link that moves flits across the network: it has tokens, and its
    source and destination leaves differ (a page talking to itself
    never touches a wire). *)

val configure_links : Bft.t -> link list -> unit
(** Program every source leaf's routing registers. *)

val stall_cycles : int
(** 100,000: the cycles without a delivery after which {!replay} gives
    up. *)

val replay : Bft.t -> link list -> result
(** Configure every link, then inject the {!active} links' tokens
    round-robin per leaf until all are delivered (retransmitting
    casualties). Raises {!Bft.Undelivered} when {!stall_cycles} cycles
    pass with no token delivered: the links lose flits faster than
    retransmission recovers them. *)

val config_cycles : ?max_rounds:int -> Bft.t -> link list -> int
(** Cycles to deliver the configuration packets themselves through the
    network from the DMA leaf (leaf 0) — the paper's "link a page in a
    few packets" cost. Lost config packets are re-sent (bounded by
    [max_rounds] host retransmission rounds, default 1000, past which
    it raises {!Bft.Undelivered}). *)
