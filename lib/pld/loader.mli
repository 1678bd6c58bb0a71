(** The loading half of "pld": push compiled containers onto the card
    in DFX order (overlay first, then L2 pages) and link the dataflow
    graph by sending routing-register configuration packets through
    the network.

    Deploys are fault-tolerant: every page load is readback-verified
    (CRC over the configuration frames), and a page that keeps failing
    walks the recovery ladder — bounded-backoff retries, then a relink
    onto a spare page, then the -O0 softcore build — before the deploy
    gives up. The ladder is the refinement ladder of §6 run in
    reverse, and it only ever relinks: no full recompile happens here. *)

type recovery_event =
  | Load_retry of { inst : string; page : int; attempt : int; backoff_seconds : float }
      (** A load's readback failed; it was retried after an exponential
          backoff (2 ms doubling). *)
  | Spare_relink of { inst : string; from_page : int; to_page : int; relink_seconds : float }
      (** [from_page] exhausted its retries, so the operator was
          recompiled for spare page [to_page] (HLS reused; only the
          page-scoped P&R is paid) and loaded there. *)
  | Softcore_fallback of { inst : string; from_page : int; to_page : int; relink_seconds : float }
      (** No clean page fits the hardware build: the operator dropped a
          rung to the -O0 softcore image, which fits every page. The
          deploy is then {e degraded} — functionally identical, slower. *)

type deploy_result = {
  seconds : float;  (** modeled load + link + retry/relink seconds *)
  app : Build.app;
      (** the app as actually deployed: assignment and operators
          reflect any relinks (identical to the input when no fault
          fired) *)
  recovery : recovery_event list;  (** in the order they happened *)
  degraded : bool;  (** at least one HW operator fell back to softcore *)
}

exception Deploy_failed of string
(** The recovery ladder ran out of clean pages (the message carries the
    defect map; a full recompile, new floorplan, is the only way out),
    or the link step could not deliver its configuration packets
    through a lossy network. *)

val describe_recovery : recovery_event -> string

val deploy :
  ?faults:Pld_faults.Fault.t -> ?max_retries:int -> Pld_platform.Card.t -> Build.app -> deploy_result
(** [faults] attaches the injector to the card (page-load corruption,
    NoC link faults) before loading. [max_retries] (default 3) bounds
    the per-page retry rung. Raises [Pld_platform.Card.Protocol_error]
    on DFX violations and {!Deploy_failed} when recovery is
    impossible. *)

val describe_artifacts : Build.app -> string
(** One line per xclbin/ELF the deploy would load. *)
