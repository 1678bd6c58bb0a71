(** Growable FIFO of [int]s: a power-of-two circular buffer that starts
    empty (no storage until the first push) and doubles when full. The
    NoC keeps flit handles in these — the lost queue, the eject buffer
    and per-leaf retransmit queues — so their traffic allocates nothing
    once the buffers have grown to their working size. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> int -> unit
(** Append at the tail. *)

val pop : t -> int
(** Remove and return the head; [Invalid_argument] when empty. *)

val peek : t -> int
(** The head, left in place; [Invalid_argument] when empty. *)

val clear : t -> unit
