(** Deflection-routed Butterfly-Fat-Tree linking network (§4.3).

    Single-flit packets, Hoplite-style bufferless switches: every flit
    entering a switch leaves the same cycle on *some* port — flits that
    lose arbitration for their preferred port are deflected. Switches
    are 4-ary with two parent links (the BFT "fatness"); the root has
    none. One flit per link per cycle at the 200 MHz overlay clock.

    Leaves are page endpoints; leaf 0 is conventionally the DMA/host
    interface. Each leaf's interface holds configuration registers
    mapping its local output streams to (destination leaf, destination
    stream); configuration packets update these registers in-band —
    that is the "linking in seconds" mechanism.

    Every flit carries a CRC-8 over its payload. With a fault injector
    attached ({!create}/{!set_faults}), link traversals can drop a flit
    (the wire goes quiet) or flip a payload bit (caught by the CRC
    check at the destination leaf). Both casualties land in a lost
    queue the sender drains via {!take_lost} to retransmit — the NoC
    itself is unacknowledged, like the hardware it models.

    {b Representation.} Flits in flight live in one flat [int] array
    owned by the network, a fixed number of slots per flit (source,
    destination, payload, CRC, kind and stream, age), addressed by an
    [int] handle with a free list; link registers and the lost queue
    hold handles. A flit on the network ages by one every cycle, so its
    age is kept as the cycle it counts from. Each switch's input ports,
    preferred ports (per child, and up) and deflection candidates are
    tables built once by {!create}; its spill queue is a pair of [int]
    buffers of (handle, age origin and port group), one read and one
    refilled in arbitration order each cycle, and a switch with nothing
    to arbitrate is skipped. The flit store and every buffer start
    empty and double on demand, so routing, deflecting and spilling a
    flit allocate nothing once they reach the traffic's working size.
    Telemetry counter increments are batched and flushed once per
    cycle; the hop histogram takes one sample per delivered flit. The
    {!flit} record is only the boundary type of {!inject}, {!take_lost}
    and the framing helpers.

    {b Arbitration.} Each cycle delivers leaf arrivals (leaves in
    order), then runs switches level by level, each level in index
    order, then injections (leaves in order). A switch takes last
    cycle's spilled flits in reverse spill order, then its child links
    (child order, each child's links in order), then its parent links,
    and sorts them stably oldest first; each flit ages one cycle as it
    is processed, takes its preferred port, else deflects to the first
    free up port and then (above level 1) down port, else spills.

    A network that cannot drain its traffic within a bound raises
    {!Undelivered}. *)

type flit_kind =
  | Data of { dst_stream : int }
  | Config of { reg : int; dst_leaf_value : int; dst_stream_value : int }
      (** write leaf routing register [reg] at the destination leaf *)

type flit = {
  src_leaf : int;  (** injecting leaf — where a retransmission restarts *)
  dst_leaf : int;
  mutable payload : int32;  (** mutable: in-flight corruption flips bits *)
  crc : int;  (** CRC-8 of the payload as framed by the sender *)
  kind : flit_kind;
  mutable age : int;
}

val flit_crc : int32 -> int
(** CRC-8 (poly 0x07) over the four payload bytes. *)

val data_flit : ?src_leaf:int -> dst_leaf:int -> dst_stream:int -> int32 -> flit
(** A correctly framed data flit ([src_leaf] defaults to 0). *)

val config_flit :
  ?src_leaf:int -> dst_leaf:int -> reg:int -> dst_leaf_value:int -> dst_stream_value:int -> unit -> flit
(** A correctly framed configuration flit (payload encodes the register
    write, so corruption is detectable like any data flit). *)

val refresh : flit -> flit
(** Sender-side retransmission framing: fresh CRC over the current
    payload, age reset. *)

exception Undelivered of string
(** Traffic that the network could not deliver within its bound (cycles
    or retransmission rounds) — a link fault rate too high to make
    progress. The message names the bound. *)

type t

val create :
  ?leaves:int ->
  ?faults:Pld_faults.Fault.t ->
  ?telemetry:Pld_telemetry.Telemetry.t ->
  ?pmu:Pld_telemetry.Pmu.t ->
  unit ->
  t
(** [leaves] defaults to 32 (22 pages + DMA + headroom), rounded up to
    a power of 4-ary tree capacity. [faults] attaches a link fault
    injector (drop/corrupt rates) from the start. [telemetry] (default
    the process sink) receives the [noc.hop_latency] cycle histogram
    and [noc.delivered]/[noc.dropped]/[noc.corrupted]/
    [noc.crc_rejects]/[noc.deflections] counters as the network runs.

    [pmu] (default none) receives windowed series on the NoC cycle
    clock: [noc.link.<id>.flits] per active link (utilization over
    time), [noc.queue_delay] (delivered-flit age samples), and
    [noc.deflections]. *)

val leaf_count : t -> int

val telemetry : t -> Pld_telemetry.Telemetry.t
(** The sink this network records into (harnesses layered on top —
    replay, config delivery — record theirs to the same place). *)

val set_faults : t -> Pld_faults.Fault.t option -> unit
(** Attach or clear the link fault injector. *)

val configure : t -> leaf:int -> stream:int -> dst_leaf:int -> dst_stream:int -> unit
(** Host-side direct register write (used by tests and by the loader
    after its config packets are delivered). Raises [Invalid_argument]
    on a leaf outside the network or a negative stream. *)

val lookup_route : t -> leaf:int -> stream:int -> (int * int) option
(** Current (dst_leaf, dst_stream) register value. *)

val inject : t -> leaf:int -> flit -> bool
(** Try to hand a flit to the leaf's injection port; false if the port
    is busy this cycle (caller retries next cycle). *)

val eject : t -> leaf:int -> (int * int32) list
(** Drain (dst_stream, payload) data flits delivered to this leaf since
    the last call. Config flits are applied internally; flits whose CRC
    check fails are never ejected (they go to the lost queue). *)

val take_lost : t -> flit list
(** Drain the flits lost since the last call (dropped on a link, or
    CRC-rejected at delivery), oldest first. The sender {!refresh}es
    and re-injects them. *)

val step : t -> unit
(** Advance one cycle. *)

(** {2 Allocation-free sender interface}

    What a traffic harness needs per cycle, on flit handles instead of
    {!flit} records. *)

val send : t -> leaf:int -> stream:int -> int -> bool
(** Data injection using the leaf's configured routing register, with
    the payload's low 32 bits given as an [int]; false if the port is
    busy this cycle. Raises [Invalid_argument] if the stream is not
    linked. *)

val pop_lost : t -> int
(** The oldest lost flit's handle, or -1 if none; the caller owns it
    until it {!resend}s it. *)

val lost_src : t -> int -> int
(** The source leaf of a lost flit's handle. *)

val resend : t -> leaf:int -> int -> bool
(** {!refresh} a lost flit's handle and inject it at [leaf]; false if
    the port is busy this cycle (the caller keeps the handle). *)

val discard_ejected : t -> int
(** Drop every delivered data flit not yet ejected and return how many
    there were — for harnesses that count deliveries and never read
    payloads. *)

type stats = {
  cycles : int;
  delivered : int;
  deflections : int;
  dropped : int;  (** flits lost on a link (fault injection) *)
  corrupted : int;  (** flits bit-flipped on a link (fault injection) *)
  max_latency : int;
  total_latency : int;
}

val stats : t -> stats

val link_faults : t -> (int * int * int) list
(** Per-link fault counters, [(link id, drops, corruptions)], links
    with at least one fault only. *)

val link_traffic : t -> (int * int) list
(** Per-link flit counters, [(link id, flits placed)], links that
    carried at least one flit only — the raw per-link utilization the
    replay harness publishes as gauges. *)

val run_until_idle : t -> unit
(** Step until no flits are in flight (injection queues drained by the
    caller beforehand). Raises {!Undelivered} after a million cycles.
    Lost flits are not in flight — check {!take_lost} afterwards. *)
