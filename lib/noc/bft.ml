module Fault = Pld_faults.Fault
module Telemetry = Pld_telemetry.Telemetry
module Pmu = Pld_telemetry.Pmu

type flit_kind =
  | Data of { dst_stream : int }
  | Config of { reg : int; dst_leaf_value : int; dst_stream_value : int }

type flit = {
  src_leaf : int;
  dst_leaf : int;
  mutable payload : int32;
  crc : int;
  kind : flit_kind;
  mutable age : int;
}

(* CRC-8 (poly 0x07) over the four payload bytes — the per-flit frame
   check that lets a leaf reject corrupted deliveries. *)
let flit_crc (payload : int32) =
  let crc = ref 0 in
  for i = 0 to 3 do
    let byte = Int32.to_int (Int32.logand (Int32.shift_right_logical payload (8 * i)) 0xFFl) in
    crc := !crc lxor byte;
    for _ = 1 to 8 do
      crc := if !crc land 0x80 <> 0 then (!crc lsl 1) lxor 0x07 land 0xFF else !crc lsl 1 land 0xFF
    done
  done;
  !crc

let data_flit ?(src_leaf = 0) ~dst_leaf ~dst_stream payload =
  { src_leaf; dst_leaf; payload; crc = flit_crc payload; kind = Data { dst_stream }; age = 0 }

let config_flit ?(src_leaf = 0) ~dst_leaf ~reg ~dst_leaf_value ~dst_stream_value () =
  let payload =
    Int32.of_int (((reg land 0xFF) lsl 16) lor ((dst_leaf_value land 0xFF) lsl 8) lor (dst_stream_value land 0xFF))
  in
  {
    src_leaf;
    dst_leaf;
    payload;
    crc = flit_crc payload;
    kind = Config { reg; dst_leaf_value; dst_stream_value };
    age = 0;
  }

(* A sender retransmission: re-frame the (possibly corrupted) payload
   with a fresh CRC and age. *)
let refresh f = { f with crc = flit_crc f.payload; age = 0 }

(* Link registers: one flit in flight per link per cycle. *)
type t = {
  depth : int;  (** tree levels of switches *)
  leaves : int;  (** 4^depth leaf slots *)
  cur : flit option array;
  nxt : flit option array;
  leaf_up : int array;  (** link id: leaf -> level-1 switch *)
  leaf_down : int array;
  (* up_pair.(l-1).(i).(k): level-l switch i -> its parent, k in 0..1;
     down_pair mirrors it. Level depth has no parents. *)
  up_pair : int array array array;
  down_pair : int array array array;
  pending_inject : flit option array;
  eject_buf : (int * int32) Queue.t array;
  routes : (int * int, int * int) Hashtbl.t;
  overflow : flit Queue.t array array;  (** per level-1.. switch spill queue *)
  mutable faults : Fault.t option;
  lost : flit Queue.t;  (** dropped / CRC-rejected flits awaiting retransmit *)
  link_drops : int array;
  link_corrupts : int array;
  link_flits : int array;  (** flits placed on each link, ever *)
  tele : Telemetry.t;
  hop_hist : Telemetry.histogram;  (** delivered-flit age in cycles *)
  (* Counter handles are cached: deliver/transmit/deflect are the
     simulator's hottest paths and a registry lookup per event would
     dominate them. *)
  c_delivered : Telemetry.counter;
  c_dropped : Telemetry.counter;
  c_corrupted : Telemetry.counter;
  c_crc_rejects : Telemetry.counter;
  c_deflections : Telemetry.counter;
  (* PMU series (NoC cycle clock). Link series are created on first
     traffic so an idle link costs nothing; same hot-path-caching
     rationale as the counters above. *)
  pmu : Pmu.t option;
  pmu_link : Pmu.series option array;
  pmu_qdelay : Pmu.series option;
  pmu_deflect : Pmu.series option;
  mutable cycles : int;
  mutable in_flight : int;
  mutable delivered : int;
  mutable deflections : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable max_latency : int;
  mutable total_latency : int;
}

let switches_at_level t l = t.leaves / (1 lsl (2 * l)) (* 4^depth / 4^l *)

(* Hop latencies are small integers of cycles; power-of-two edges keep
   the histogram readable for both uncongested (1-8) and deflection-
   heavy (64+) traffic. *)
let hop_buckets = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]

let create ?(leaves = 32) ?faults ?(telemetry = Telemetry.default) ?pmu () =
  let depth =
    let rec go d = if 1 lsl (2 * d) >= leaves then d else go (d + 1) in
    go 1
  in
  let leaves = 1 lsl (2 * depth) in
  let nlinks = ref 0 in
  let fresh () =
    let id = !nlinks in
    incr nlinks;
    id
  in
  let leaf_up = Array.init leaves (fun _ -> fresh ()) in
  let leaf_down = Array.init leaves (fun _ -> fresh ()) in
  let up_pair =
    Array.init (depth - 1) (fun l ->
        let n = leaves / (1 lsl (2 * (l + 1))) in
        Array.init n (fun _ -> Array.init 2 (fun _ -> fresh ())))
  in
  let down_pair =
    Array.init (depth - 1) (fun l ->
        let n = leaves / (1 lsl (2 * (l + 1))) in
        Array.init n (fun _ -> Array.init 2 (fun _ -> fresh ())))
  in
  let t =
    {
      depth;
      leaves;
      cur = Array.make !nlinks None;
      nxt = Array.make !nlinks None;
      leaf_up;
      leaf_down;
      up_pair;
      down_pair;
      pending_inject = Array.make leaves None;
      eject_buf = Array.init leaves (fun _ -> Queue.create ());
      routes = Hashtbl.create 64;
      overflow =
        Array.init depth (fun l -> Array.init (leaves / (1 lsl (2 * (l + 1)))) (fun _ -> Queue.create ()));
      faults;
      lost = Queue.create ();
      link_drops = Array.make !nlinks 0;
      link_corrupts = Array.make !nlinks 0;
      link_flits = Array.make !nlinks 0;
      tele = telemetry;
      hop_hist = Telemetry.histogram telemetry ~buckets:hop_buckets "noc.hop_latency";
      c_delivered = Telemetry.counter telemetry "noc.delivered";
      c_dropped = Telemetry.counter telemetry "noc.dropped";
      c_corrupted = Telemetry.counter telemetry "noc.corrupted";
      c_crc_rejects = Telemetry.counter telemetry "noc.crc_rejects";
      c_deflections = Telemetry.counter telemetry "noc.deflections";
      pmu;
      pmu_link = Array.make !nlinks None;
      pmu_qdelay = Option.map (fun p -> Pmu.series p ~unit_:"cycles" "noc.queue_delay") pmu;
      pmu_deflect = Option.map (fun p -> Pmu.series p ~unit_:"deflections" "noc.deflections") pmu;
      cycles = 0;
      in_flight = 0;
      delivered = 0;
      deflections = 0;
      dropped = 0;
      corrupted = 0;
      max_latency = 0;
      total_latency = 0;
    }
  in
  t

let leaf_count t = t.leaves
let telemetry t = t.tele
let set_faults t f = t.faults <- f

let configure t ~leaf ~stream ~dst_leaf ~dst_stream =
  Hashtbl.replace t.routes (leaf, stream) (dst_leaf, dst_stream)

let lookup_route t ~leaf ~stream = Hashtbl.find_opt t.routes (leaf, stream)

let inject t ~leaf f =
  if leaf < 0 || leaf >= t.leaves then invalid_arg "Bft.inject: bad leaf";
  match t.pending_inject.(leaf) with
  | Some _ -> false
  | None ->
      t.pending_inject.(leaf) <- Some f;
      t.in_flight <- t.in_flight + 1;
      true

let inject_via_route t ~leaf ~stream payload =
  match lookup_route t ~leaf ~stream with
  | None -> invalid_arg (Printf.sprintf "Bft.inject_via_route: leaf %d stream %d not linked" leaf stream)
  | Some (dst_leaf, dst_stream) ->
      inject t ~leaf (data_flit ~src_leaf:leaf ~dst_leaf ~dst_stream payload)

let eject t ~leaf =
  let out = ref [] in
  while not (Queue.is_empty t.eject_buf.(leaf)) do
    out := Queue.pop t.eject_buf.(leaf) :: !out
  done;
  List.rev !out

let take_lost t =
  let out = ref [] in
  while not (Queue.is_empty t.lost) do
    out := Queue.pop t.lost :: !out
  done;
  List.rev !out

let deliver t (f : flit) =
  t.in_flight <- t.in_flight - 1;
  if flit_crc f.payload <> f.crc then begin
    (* CRC reject at the leaf: the flit never reaches the stream; the
       sender sees it in the lost queue and retransmits. *)
    Telemetry.incr t.c_crc_rejects;
    Queue.push f t.lost
  end
  else begin
    t.delivered <- t.delivered + 1;
    Telemetry.incr t.c_delivered;
    Telemetry.observe t.hop_hist (float_of_int f.age);
    (match t.pmu_qdelay with
    | Some s -> Pmu.add s ~cycle:t.cycles (float_of_int f.age)
    | None -> ());
    t.total_latency <- t.total_latency + f.age;
    if f.age > t.max_latency then t.max_latency <- f.age;
    match f.kind with
    | Data { dst_stream } -> Queue.push (dst_stream, f.payload) t.eject_buf.(f.dst_leaf)
    | Config { reg; dst_leaf_value; dst_stream_value } ->
        Hashtbl.replace t.routes (f.dst_leaf, reg) (dst_leaf_value, dst_stream_value)
  end

(* Put a flit onto a claimed output register, through the fault model:
   a dropped flit leaves the wire empty (the slot is wasted) and lands
   in the lost queue; a corrupted one travels on with a flipped bit,
   to be caught by the CRC check at delivery. *)
let transmit t link f =
  t.link_flits.(link) <- t.link_flits.(link) + 1;
  (match t.pmu with
  | Some p ->
      let s =
        match t.pmu_link.(link) with
        | Some s -> s
        | None ->
            let s = Pmu.series p ~unit_:"flits" (Printf.sprintf "noc.link.%d.flits" link) in
            t.pmu_link.(link) <- Some s;
            s
      in
      Pmu.add s ~cycle:t.cycles 1.0
  | None -> ());
  match t.faults with
  | Some fl when Fault.drop_flit fl ->
      t.link_drops.(link) <- t.link_drops.(link) + 1;
      t.dropped <- t.dropped + 1;
      Telemetry.incr t.c_dropped;
      t.in_flight <- t.in_flight - 1;
      Queue.push f t.lost
  | Some fl when Fault.corrupt_flit fl ->
      t.link_corrupts.(link) <- t.link_corrupts.(link) + 1;
      t.corrupted <- t.corrupted + 1;
      Telemetry.incr t.c_corrupted;
      f.payload <- Int32.logxor f.payload (Fault.corrupt_mask fl);
      t.nxt.(link) <- Some f
  | _ -> t.nxt.(link) <- Some f

(* Leaves covered by switch [i] at level [l]: [i*4^l, (i+1)*4^l). *)
let covers l i leaf =
  let span = 1 lsl (2 * l) in
  leaf >= i * span && leaf < (i + 1) * span

let step t =
  t.cycles <- t.cycles + 1;
  Array.fill t.nxt 0 (Array.length t.nxt) None;
  (* Deliver flits that arrived on leaf down-links last cycle. *)
  for leaf = 0 to t.leaves - 1 do
    match t.cur.(t.leaf_down.(leaf)) with
    | Some f -> deliver t f
    | None -> ()
  done;
  (* Process switches level by level; each consumes its input link
     registers (cur) and claims output registers (nxt). *)
  for l = 1 to t.depth do
    let nsw = switches_at_level t l in
    for i = 0 to nsw - 1 do
      (* Input links. *)
      let child_in =
        if l = 1 then List.init 4 (fun c -> t.leaf_up.((i * 4) + c))
        else
          List.concat
            (List.init 4 (fun c ->
                 Array.to_list t.up_pair.(l - 2).((i * 4) + c)))
      in
      let parent_in = if l = t.depth then [] else Array.to_list t.down_pair.(l - 1).(i) in
      let inputs =
        List.filter_map (fun link -> Option.map (fun f -> f) t.cur.(link)) (child_in @ parent_in)
      in
      (* Spilled flits from previous cycles re-enter with priority. *)
      let spill = t.overflow.(l - 1).(i) in
      let inputs = Queue.fold (fun acc f -> f :: acc) inputs spill in
      Queue.clear spill;
      (* Output ports toward child c. *)
      let down_port c =
        if l = 1 then [ t.leaf_down.((i * 4) + c) ]
        else Array.to_list t.down_pair.(l - 2).((i * 4) + c)
      in
      let up_ports = if l = t.depth then [] else Array.to_list t.up_pair.(l - 1).(i) in
      let taken = Hashtbl.create 8 in
      let try_claim link =
        if Hashtbl.mem taken link || t.nxt.(link) <> None then false
        else begin
          Hashtbl.replace taken link ();
          true
        end
      in
      (* Oldest first. *)
      let inputs = List.sort (fun a b -> compare b.age a.age) inputs in
      List.iter
        (fun f ->
          f.age <- f.age + 1;
          let child_of_dst =
            let rec find c = if c >= 4 then None else if covers (l - 1) ((i * 4) + c) f.dst_leaf then Some c else find (c + 1) in
            if covers l i f.dst_leaf then find 0 else None
          in
          let place link = transmit t link f in
          let rec first_free = function
            | [] -> None
            | link :: rest -> if try_claim link then Some link else first_free rest
          in
          let preferred =
            match child_of_dst with
            | Some c -> first_free (down_port c)
            | None -> first_free up_ports
          in
          match preferred with
          | Some link -> place link
          | None -> begin
              (* Deflect: any free switch-to-switch port (never a wrong
                 leaf port); as a last resort spill into the switch
                 queue. *)
              t.deflections <- t.deflections + 1;
              Telemetry.incr t.c_deflections;
              (match t.pmu_deflect with
              | Some s -> Pmu.add s ~cycle:t.cycles 1.0
              | None -> ());
              let candidates =
                up_ports
                @ (if l = 1 then []
                   else List.concat (List.init 4 (fun c -> down_port c)))
              in
              match first_free candidates with
              | Some link -> place link
              | None -> Queue.push f spill
            end)
        inputs
    done
  done;
  (* Injections onto free leaf up-links (the injection wire is a link
     too, so it shares the fault model). *)
  for leaf = 0 to t.leaves - 1 do
    match t.pending_inject.(leaf) with
    | Some f when t.nxt.(t.leaf_up.(leaf)) = None ->
        transmit t t.leaf_up.(leaf) f;
        t.pending_inject.(leaf) <- None
    | _ -> ()
  done;
  Array.blit t.nxt 0 t.cur 0 (Array.length t.cur)

type stats = {
  cycles : int;
  delivered : int;
  deflections : int;
  dropped : int;
  corrupted : int;
  max_latency : int;
  total_latency : int;
}

let stats (t : t) =
  {
    cycles = t.cycles;
    delivered = t.delivered;
    deflections = t.deflections;
    dropped = t.dropped;
    corrupted = t.corrupted;
    max_latency = t.max_latency;
    total_latency = t.total_latency;
  }

let link_faults t =
  let out = ref [] in
  for link = Array.length t.link_drops - 1 downto 0 do
    if t.link_drops.(link) > 0 || t.link_corrupts.(link) > 0 then
      out := (link, t.link_drops.(link), t.link_corrupts.(link)) :: !out
  done;
  !out

let link_traffic t =
  let out = ref [] in
  for link = Array.length t.link_flits - 1 downto 0 do
    if t.link_flits.(link) > 0 then out := (link, t.link_flits.(link)) :: !out
  done;
  !out

let run_until_idle ?(max_cycles = 1_000_000) (t : t) =
  let start = t.cycles in
  while t.in_flight > 0 do
    if t.cycles - start > max_cycles then failwith "Bft.run_until_idle: exceeded max cycles";
    step t
  done
