module Fault = Pld_faults.Fault
module Pmu = Pld_telemetry.Pmu

type page_state =
  | Empty
  | Hw of { operator : string; fmax_mhz : float; crc : string }
  | Softcore of { elf : Pld_riscv.Elf.packed }

type l1_state =
  | Unconfigured
  | Overlay_loaded
  | Kernel_loaded of { operators : string list; fmax_mhz : float }

type t = {
  fp : Pld_fabric.Floorplan.t;
  mutable l1 : l1_state;
  pages : (int, page_state) Hashtbl.t;
  mutable net : Pld_noc.Bft.t option;
  mutable faults : Fault.t option;
  corrupted : (int, unit) Hashtbl.t;  (** pages whose last load took bad frames *)
  pmu : Pmu.t option;
  (* Modeled platform clock for PMU samples: load seconds converted to
     overlay cycles, accumulated across the card's lifetime. *)
  mutable modeled_cycles : int;
}

exception Protocol_error of string

let overlay_hz = 200.0e6

let create ?faults ?pmu () =
  {
    fp = Pld_fabric.Floorplan.u50 ();
    l1 = Unconfigured;
    pages = Hashtbl.create 32;
    net = None;
    faults;
    corrupted = Hashtbl.create 4;
    pmu;
    modeled_cycles = 0;
  }

let set_faults t f =
  t.faults <- f;
  match t.net with Some n -> Pld_noc.Bft.set_faults n f | None -> ()

let floorplan t = t.fp

let noc t =
  match t.net with
  | Some n -> n
  | None -> failwith "Card.noc: overlay not loaded"

let l1 t = t.l1
let page_state t p = Option.value ~default:Empty (Hashtbl.find_opt t.pages p)
let dma_leaf = 0

let pcie_bytes_per_sec = 2.0e9
let config_latency = 0.002

let load_seconds bytes = config_latency +. (float_of_int bytes /. pcie_bytes_per_sec)

let reset t =
  t.l1 <- Unconfigured;
  Hashtbl.reset t.pages;
  Hashtbl.reset t.corrupted;
  t.net <- None

(* Did fault injection garble this page-load attempt? *)
let load_garbled t page =
  match t.faults with Some fl -> Fault.load_corrupts fl ~page | None -> false

let load t (xb : Xclbin.t) =
  let module Telemetry = Pld_telemetry.Telemetry in
  let kind =
    match xb.Xclbin.payload with
    | Xclbin.Overlay _ -> "overlay"
    | Xclbin.Page_bits { page; _ } -> Printf.sprintf "page%d" page
    | Xclbin.Softcore { page; _ } -> Printf.sprintf "softcore%d" page
    | Xclbin.Kernel _ -> "kernel"
  in
  Telemetry.with_span Telemetry.default ~cat:"platform"
    ~attrs:[ ("bytes", string_of_int xb.Xclbin.size_bytes) ]
    ("load:" ^ kind)
  @@ fun () ->
  (match xb.Xclbin.payload with
  | Xclbin.Overlay { noc_leaves; _ } ->
      Hashtbl.reset t.pages;
      Hashtbl.reset t.corrupted;
      t.l1 <- Overlay_loaded;
      t.net <- Some (Pld_noc.Bft.create ~leaves:noc_leaves ?faults:t.faults ?pmu:t.pmu ())
  | Xclbin.Page_bits { page; operator; bitstream; fmax_mhz } -> begin
      match t.l1 with
      | Overlay_loaded ->
          (match Pld_fabric.Floorplan.find_page t.fp page with
          | _ -> ()
          | exception Not_found ->
              raise (Protocol_error (Printf.sprintf "page %d does not exist" page)));
          let crc = bitstream.Pld_pnr.Bitgen.crc in
          (* A garbled load writes bad frames: what readback digests is
             not what the bitgen produced. *)
          let crc =
            if load_garbled t page then begin
              Hashtbl.replace t.corrupted page ();
              Pld_util.Digest_lite.of_string (crc ^ ":garbled")
            end
            else begin
              Hashtbl.remove t.corrupted page;
              crc
            end
          in
          Hashtbl.replace t.pages page (Hw { operator; fmax_mhz; crc })
      | Unconfigured -> raise (Protocol_error "page load before overlay")
      | Kernel_loaded _ -> raise (Protocol_error "page load while a monolithic kernel is active")
    end
  | Xclbin.Softcore { page; elf } -> begin
      match t.l1 with
      | Overlay_loaded ->
          if load_garbled t page then Hashtbl.replace t.corrupted page ()
          else Hashtbl.remove t.corrupted page;
          Hashtbl.replace t.pages page (Softcore { elf })
      | Unconfigured -> raise (Protocol_error "softcore load before overlay")
      | Kernel_loaded _ -> raise (Protocol_error "softcore load while a monolithic kernel is active")
    end
  | Xclbin.Kernel { operators; fmax_mhz; _ } ->
      Hashtbl.reset t.pages;
      Hashtbl.reset t.corrupted;
      t.net <- None;
      t.l1 <- Kernel_loaded { operators; fmax_mhz });
  let seconds = load_seconds xb.Xclbin.size_bytes in
  (* Page-activity series on the modeled platform clock: one sample per
     (re)configuration event, weighted by its size in bytes, under the
     page it touched — the reconfiguration-churn view of the fabric. *)
  (match t.pmu with
  | Some p ->
      t.modeled_cycles <- t.modeled_cycles + int_of_float (seconds *. overlay_hz);
      let name =
        match xb.Xclbin.payload with
        | Xclbin.Overlay _ -> "platform.overlay.loads"
        | Xclbin.Page_bits { page; _ } | Xclbin.Softcore { page; _ } ->
            Printf.sprintf "platform.page.%d.loads" page
        | Xclbin.Kernel _ -> "platform.kernel.loads"
      in
      Pmu.add (Pmu.series p ~unit_:"bytes" name) ~cycle:t.modeled_cycles
        (float_of_int xb.Xclbin.size_bytes)
  | None -> ());
  seconds

(* Readback-verify: digest the configuration frames the page actually
   holds and compare against what the container was supposed to write.
   This is the loader's detection point for defective pages. *)
let readback_ok t (xb : Xclbin.t) =
  match xb.Xclbin.payload with
  | Xclbin.Page_bits { page; bitstream; _ } -> begin
      match page_state t page with
      | Hw { crc; _ } ->
          (not (Hashtbl.mem t.corrupted page)) && String.equal crc bitstream.Pld_pnr.Bitgen.crc
      | Empty | Softcore _ -> false
    end
  | Xclbin.Softcore { page; _ } -> begin
      match page_state t page with
      | Softcore _ -> not (Hashtbl.mem t.corrupted page)
      | Empty | Hw _ -> false
    end
  | Xclbin.Overlay _ -> t.l1 = Overlay_loaded
  | Xclbin.Kernel _ -> ( match t.l1 with Kernel_loaded _ -> true | _ -> false)

let loaded_pages t =
  Hashtbl.fold (fun p s acc -> (p, s) :: acc) t.pages [] |> List.sort compare

let describe t =
  let l1 =
    match t.l1 with
    | Unconfigured -> "L1: unconfigured"
    | Overlay_loaded -> "L1: PLD overlay"
    | Kernel_loaded { operators; fmax_mhz } ->
        Printf.sprintf "L1: monolithic kernel (%d ops @ %.0f MHz)" (List.length operators) fmax_mhz
  in
  let pages =
    loaded_pages t
    |> List.map (fun (p, s) ->
           match s with
           | Empty -> Printf.sprintf "  page %d: empty" p
           | Hw { operator; fmax_mhz; _ } -> Printf.sprintf "  page %d: %s @ %.0f MHz" p operator fmax_mhz
           | Softcore { elf } ->
               Printf.sprintf "  page %d: softcore running %s" p
                 elf.Pld_riscv.Elf.program.Pld_riscv.Codegen.op_name)
  in
  String.concat "\n" (l1 :: pages)
