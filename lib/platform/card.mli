(** The data-center card model (§2.5, Fig. 3): static PCIe shell, a
    level-1 DFX region, and — once the PLD overlay is loaded — 22
    level-2 page slots joined by the linking network, with the DMA
    engine on NoC leaf 0.

    The card enforces the DFX discipline: page loads require the
    overlay; loading a monolithic kernel evicts it; partial loads touch
    only their page. Load times follow bitstream size over PCIe. *)

type page_state =
  | Empty
  | Hw of { operator : string; fmax_mhz : float; crc : string }
  | Softcore of { elf : Pld_riscv.Elf.packed }

type l1_state =
  | Unconfigured
  | Overlay_loaded
  | Kernel_loaded of { operators : string list; fmax_mhz : float }

type t

val create : ?faults:Pld_faults.Fault.t -> ?pmu:Pld_telemetry.Pmu.t -> unit -> t
(** A powered-on card with the vendor shell only. [faults] injects
    page-load corruption (defective/flaky pages) and is handed to the
    overlay's NoC (link drop/corrupt rates) when it is loaded.

    [pmu] (default none) receives [platform.page.<n>.loads] /
    [platform.overlay.loads] / [platform.kernel.loads] samples (bytes
    per reconfiguration event, on a modeled platform clock) and is
    likewise handed to the overlay's NoC for per-link series. *)

val set_faults : t -> Pld_faults.Fault.t option -> unit
(** Attach or clear the fault injector (also updates a live NoC). *)

val floorplan : t -> Pld_fabric.Floorplan.t
val noc : t -> Pld_noc.Bft.t
(** Live only while the overlay is loaded; raises [Failure] otherwise. *)

val l1 : t -> l1_state

val dma_leaf : int
(** NoC leaf index of the DMA engine (0). *)

exception Protocol_error of string

val load : t -> Xclbin.t -> float
(** Load a container; returns modeled load seconds (PCIe at 2 GB/s
    plus configuration latency). Raises {!Protocol_error} when the
    DFX discipline is violated (e.g. a page load without overlay).
    With a fault injector attached, a defective or flaky page takes
    garbled frames — detected by {!readback_ok}, never signalled
    here (real DFX loads do not fail loudly either). *)

val readback_ok : t -> Xclbin.t -> bool
(** CRC readback-verify: digest the configuration frames the container
    targeted and compare with what it carried. [false] means the load
    must be retried or the operator relocated. *)

val reset : t -> unit
(** Clear the L1 region back to [Unconfigured]. *)

val loaded_pages : t -> (int * page_state) list

val describe : t -> string
