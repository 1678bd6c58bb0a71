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

exception Undelivered of string

(* CRC-8 (poly 0x07) over the low four bytes of an int — the per-flit
   frame check that lets a leaf reject corrupted deliveries. *)
let crc8 p =
  let crc = ref 0 in
  for i = 0 to 3 do
    crc := !crc lxor ((p lsr (8 * i)) land 0xFF);
    for _ = 1 to 8 do
      crc := if !crc land 0x80 <> 0 then (!crc lsl 1) lxor 0x07 land 0xFF else !crc lsl 1 land 0xFF
    done
  done;
  !crc

let flit_crc (payload : int32) = crc8 (Int32.to_int payload)

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

(* Flits in flight live in one flat int array owned by the network,
   [stride] slots per flit; a flit's handle is the index of its first
   slot, and freed handles go on a stack. The payload is kept
   sign-extended from 32 bits. [f_stream] is a data flit's destination
   stream or a config flit's register; [f_cfg_leaf]/[f_cfg_stream] are
   a config flit's register value.

   [f_age] holds the flit's age while it waits to be injected or sits in
   the lost queue. In between it holds the cycle the age counts from: a
   flit on the network is processed by exactly one switch every cycle
   until it is delivered, so its age after cycle [c]'s processing is
   [c - f_age], and nothing has to count it. *)
let f_src = 0
let f_dst = 1
let f_payload = 2
let f_crc = 3
let f_config = 4
let f_stream = 5
let f_cfg_leaf = 6
let f_cfg_stream = 7
let f_age = 8
let stride = 9

let no_route = min_int
let empty = -1
let wasted = -2

(* Link registers hold flit handles: one flit in flight per link per
   cycle, [empty] for a quiet wire, [wasted] for a wire whose flit was
   dropped this cycle (claimed, but nothing arrives). Switches are
   numbered level 1 first, in index order within a level — the order a
   cycle processes them. *)
type t = {
  leaves : int;  (** 4^depth leaf slots *)
  mutable cur : int array;
  mutable nxt : int array;
  leaf_up : int array;  (** link id: leaf -> level-1 switch *)
  leaf_down : int array;
  sw_level : int array;
  sw_index : int array;
  sw_inputs : int array array;  (** child links in child order, then parent links *)
  sw_pref : int array array array;
      (** [.(sw).(c)] the down ports toward child [c] (0..3); [.(sw).(4)] the up ports *)
  sw_deflect : int array array;  (** up ports, then (above level 1) every down port *)
  spill : int array array;
      (** per switch, the flits spilled last cycle in the order they were
          spilled: (handle, [origin * 8 + port group]) pairs *)
  spill_back : int array array;  (** the buffer each switch spills into this cycle *)
  spill_len : int array;
  reader : int array;  (** link -> the switch it feeds, -1 for a leaf down-link *)
  mutable arriving : int array;  (** per switch: flits on its input links this cycle *)
  mutable arriving_next : int array;
  inbuf : int array;  (** one switch's link inputs, oldest first *)
  mutable flits : int array;
  mutable free : int array;  (** stack of free handles *)
  mutable nfree : int;
  pending_inject : int array;
  ejected : Ring.t;  (** delivered data flits, oldest first: (leaf, dst_stream, payload) triples *)
  route_leaf : int array array;  (** per leaf, by stream; [no_route] if unset *)
  route_stream : int array array;
  mutable faults : Fault.t option;
  lost : Ring.t;  (** dropped / CRC-rejected flits awaiting retransmit *)
  link_drops : int array;
  link_corrupts : int array;
  link_flits : int array;  (** flits placed on each link, ever *)
  tele : Telemetry.t;
  hop_hist : Telemetry.histogram;  (** delivered-flit age in cycles *)
  (* Counter handles are cached and their increments batched into the
     [pend_*] fields, flushed once per cycle: deliver/transmit/deflect
     are the simulator's hottest paths, and a registry lookup or a
     counter lock per event would dominate them. *)
  c_delivered : Telemetry.counter;
  c_dropped : Telemetry.counter;
  c_corrupted : Telemetry.counter;
  c_crc_rejects : Telemetry.counter;
  c_deflections : Telemetry.counter;
  mutable pend_delivered : int;
  mutable pend_dropped : int;
  mutable pend_corrupted : int;
  mutable pend_crc_rejects : int;
  mutable pend_deflections : int;
  (* PMU series (NoC cycle clock). Link series are created on first
     traffic so an idle link costs nothing. *)
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
  let at_level l = leaves / (1 lsl (2 * l)) (* switches at level l: 4^depth / 4^l *) in
  let nlinks = ref 0 in
  let fresh () =
    let id = !nlinks in
    incr nlinks;
    id
  in
  let leaf_up = Array.init leaves (fun _ -> fresh ()) in
  let leaf_down = Array.init leaves (fun _ -> fresh ()) in
  (* up_pair.(l-1).(i): level-l switch i -> its two parent links;
     down_pair mirrors it. Level depth has no parents. *)
  let pairs () =
    Array.init (depth - 1) (fun l -> Array.init (at_level (l + 1)) (fun _ -> Array.init 2 (fun _ -> fresh ())))
  in
  let up_pair = pairs () in
  let down_pair = pairs () in
  let nsw = List.fold_left (fun acc l -> acc + at_level l) 0 (List.init depth (fun l -> l + 1)) in
  let sw_level = Array.make nsw 0 and sw_index = Array.make nsw 0 in
  let sw = ref 0 in
  for l = 1 to depth do
    for i = 0 to at_level l - 1 do
      sw_level.(!sw) <- l;
      sw_index.(!sw) <- i;
      incr sw
    done
  done;
  let down_ports l i c = if l = 1 then [| leaf_down.((i * 4) + c) |] else down_pair.(l - 2).((i * 4) + c) in
  let up_ports l i = if l = depth then [||] else up_pair.(l - 1).(i) in
  let per_switch f = Array.init nsw (fun sw -> f sw_level.(sw) sw_index.(sw)) in
  let children i f = Array.concat (List.init 4 (fun c -> f ((i * 4) + c))) in
  let nlinks = !nlinks in
  let sw_inputs =
    per_switch (fun l i ->
        Array.append
          (children i (fun child -> if l = 1 then [| leaf_up.(child) |] else up_pair.(l - 2).(child)))
          (if l = depth then [||] else down_pair.(l - 1).(i)))
  in
  let reader = Array.make nlinks (-1) in
  Array.iteri (fun sw inputs -> Array.iter (fun link -> reader.(link) <- sw) inputs) sw_inputs;
  {
    leaves;
    cur = Array.make nlinks empty;
    nxt = Array.make nlinks empty;
    leaf_up;
    leaf_down;
    sw_level;
    sw_index;
    sw_inputs;
    sw_pref = per_switch (fun l i -> Array.init 5 (fun c -> if c < 4 then down_ports l i c else up_ports l i));
    sw_deflect =
      per_switch (fun l i ->
          Array.append (up_ports l i) (if l = 1 then [||] else Array.concat (List.init 4 (down_ports l i))));
    spill = Array.make nsw [||];
    spill_back = Array.make nsw [||];
    spill_len = Array.make nsw 0;
    reader;
    arriving = Array.make nsw 0;
    arriving_next = Array.make nsw 0;
    inbuf = Array.make (Array.fold_left (fun acc a -> max acc (Array.length a)) 0 sw_inputs) 0;
    flits = [||];
    free = [||];
    nfree = 0;
    pending_inject = Array.make leaves empty;
    ejected = Ring.create ();
    route_leaf = Array.make leaves [||];
    route_stream = Array.make leaves [||];
    faults;
    lost = Ring.create ();
    link_drops = Array.make nlinks 0;
    link_corrupts = Array.make nlinks 0;
    link_flits = Array.make nlinks 0;
    tele = telemetry;
    hop_hist = Telemetry.histogram telemetry ~buckets:hop_buckets "noc.hop_latency";
    c_delivered = Telemetry.counter telemetry "noc.delivered";
    c_dropped = Telemetry.counter telemetry "noc.dropped";
    c_corrupted = Telemetry.counter telemetry "noc.corrupted";
    c_crc_rejects = Telemetry.counter telemetry "noc.crc_rejects";
    c_deflections = Telemetry.counter telemetry "noc.deflections";
    pend_delivered = 0;
    pend_dropped = 0;
    pend_corrupted = 0;
    pend_crc_rejects = 0;
    pend_deflections = 0;
    pmu;
    pmu_link = (if pmu = None then [||] else Array.make nlinks None);
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

let alloc t ~src ~dst ~payload ~crc ~config ~stream ~cfg_leaf ~cfg_stream ~age =
  if t.nfree = 0 then begin
    (* Every handle is in flight: double the store; the new slots fill
       the free stack. *)
    let cap = Array.length t.flits / stride in
    let cap' = max 16 (2 * cap) in
    t.flits <- Array.append t.flits (Array.make ((cap' - cap) * stride) 0);
    t.free <- Array.make cap' 0;
    for k = cap' - 1 downto cap do
      t.free.(t.nfree) <- k * stride;
      t.nfree <- t.nfree + 1
    done
  end;
  t.nfree <- t.nfree - 1;
  let h = t.free.(t.nfree) in
  let f = t.flits in
  f.(h + f_src) <- src;
  f.(h + f_dst) <- dst;
  f.(h + f_payload) <- payload;
  f.(h + f_crc) <- crc;
  f.(h + f_config) <- (if config then 1 else 0);
  f.(h + f_stream) <- stream;
  f.(h + f_cfg_leaf) <- cfg_leaf;
  f.(h + f_cfg_stream) <- cfg_stream;
  f.(h + f_age) <- age;
  h

let release t h =
  t.free.(t.nfree) <- h;
  t.nfree <- t.nfree + 1

let leaf_count t = t.leaves
let telemetry t = t.tele
let set_faults t f = t.faults <- f

let configure t ~leaf ~stream ~dst_leaf ~dst_stream =
  if leaf < 0 || leaf >= t.leaves then invalid_arg "Bft.configure: bad leaf";
  if stream < 0 then invalid_arg "Bft.configure: negative stream";
  let n = Array.length t.route_leaf.(leaf) in
  if stream >= n then begin
    let n' = max (stream + 1) (2 * n) in
    let grow a fill = Array.append a (Array.make (n' - n) fill) in
    t.route_leaf.(leaf) <- grow t.route_leaf.(leaf) no_route;
    t.route_stream.(leaf) <- grow t.route_stream.(leaf) 0
  end;
  t.route_leaf.(leaf).(stream) <- dst_leaf;
  t.route_stream.(leaf).(stream) <- dst_stream

let routed t ~leaf ~stream =
  leaf >= 0 && leaf < t.leaves && stream >= 0
  && stream < Array.length t.route_leaf.(leaf)
  && t.route_leaf.(leaf).(stream) <> no_route

let lookup_route t ~leaf ~stream =
  if routed t ~leaf ~stream then Some (t.route_leaf.(leaf).(stream), t.route_stream.(leaf).(stream)) else None

let inject_handle t ~leaf h =
  t.pending_inject.(leaf) <- h;
  t.in_flight <- t.in_flight + 1

let port_free t ~leaf =
  if leaf < 0 || leaf >= t.leaves then invalid_arg "Bft.inject: bad leaf";
  t.pending_inject.(leaf) < 0

let inject t ~leaf (f : flit) =
  port_free t ~leaf
  &&
  let stream, cfg_leaf, cfg_stream, config =
    match f.kind with
    | Data { dst_stream } -> (dst_stream, 0, 0, false)
    | Config { reg; dst_leaf_value; dst_stream_value } -> (reg, dst_leaf_value, dst_stream_value, true)
  in
  let h =
    alloc t ~src:f.src_leaf ~dst:f.dst_leaf ~payload:(Int32.to_int f.payload) ~crc:f.crc ~config ~stream
      ~cfg_leaf ~cfg_stream ~age:f.age
  in
  inject_handle t ~leaf h;
  true

let send t ~leaf ~stream payload =
  if not (routed t ~leaf ~stream) then
    invalid_arg (Printf.sprintf "Bft.send: leaf %d stream %d not linked" leaf stream);
  port_free t ~leaf
  &&
  let payload = Int32.to_int (Int32.of_int payload) in
  let h =
    alloc t ~src:leaf ~dst:t.route_leaf.(leaf).(stream) ~payload ~crc:(crc8 payload) ~config:false
      ~stream:t.route_stream.(leaf).(stream) ~cfg_leaf:0 ~cfg_stream:0 ~age:0
  in
  inject_handle t ~leaf h;
  true

let eject t ~leaf =
  let q = t.ejected in
  let out = ref [] in
  for _ = 1 to Ring.length q / 3 do
    let l = Ring.pop q in
    let stream = Ring.pop q in
    let payload = Ring.pop q in
    if l = leaf then out := (stream, Int32.of_int payload) :: !out
    else begin
      Ring.push q l;
      Ring.push q stream;
      Ring.push q payload
    end
  done;
  List.rev !out

let discard_ejected t =
  let n = Ring.length t.ejected / 3 in
  Ring.clear t.ejected;
  n

let pop_lost t = if Ring.is_empty t.lost then -1 else Ring.pop t.lost
let lost_src t h = t.flits.(h + f_src)

let resend t ~leaf h =
  port_free t ~leaf
  && begin
       t.flits.(h + f_crc) <- crc8 t.flits.(h + f_payload);
       t.flits.(h + f_age) <- 0;
       inject_handle t ~leaf h;
       true
     end

let take_lost t =
  let f = t.flits in
  let out = ref [] in
  while not (Ring.is_empty t.lost) do
    let h = Ring.pop t.lost in
    let kind =
      if f.(h + f_config) = 1 then
        Config
          { reg = f.(h + f_stream); dst_leaf_value = f.(h + f_cfg_leaf); dst_stream_value = f.(h + f_cfg_stream) }
      else Data { dst_stream = f.(h + f_stream) }
    in
    out :=
      {
        src_leaf = f.(h + f_src);
        dst_leaf = f.(h + f_dst);
        payload = Int32.of_int f.(h + f_payload);
        crc = f.(h + f_crc);
        kind;
        age = f.(h + f_age);
      }
      :: !out;
    release t h
  done;
  List.rev !out

let deliver t h =
  let f = t.flits in
  t.in_flight <- t.in_flight - 1;
  if crc8 f.(h + f_payload) <> f.(h + f_crc) then begin
    (* CRC reject at the leaf: the flit never reaches the stream; the
       sender sees it in the lost queue and retransmits. *)
    t.pend_crc_rejects <- t.pend_crc_rejects + 1;
    f.(h + f_age) <- t.cycles - 1 - f.(h + f_age);
    Ring.push t.lost h
  end
  else begin
    let age = t.cycles - 1 - f.(h + f_age) in
    t.delivered <- t.delivered + 1;
    t.pend_delivered <- t.pend_delivered + 1;
    Telemetry.observe t.hop_hist (float_of_int age);
    (match t.pmu_qdelay with
    | Some s -> Pmu.add s ~cycle:t.cycles (float_of_int age)
    | None -> ());
    t.total_latency <- t.total_latency + age;
    if age > t.max_latency then t.max_latency <- age;
    let leaf = f.(h + f_dst) in
    if f.(h + f_config) = 1 then
      configure t ~leaf ~stream:f.(h + f_stream) ~dst_leaf:f.(h + f_cfg_leaf) ~dst_stream:f.(h + f_cfg_stream)
    else begin
      Ring.push t.ejected leaf;
      Ring.push t.ejected f.(h + f_stream);
      Ring.push t.ejected f.(h + f_payload)
    end;
    release t h
  end

let place t link h =
  t.nxt.(link) <- h;
  let r = t.reader.(link) in
  if r >= 0 then t.arriving_next.(r) <- t.arriving_next.(r) + 1

(* Put a flit onto a claimed output register, through the fault model:
   a dropped flit leaves the wire empty (the slot is wasted) and lands
   in the lost queue; a corrupted one travels on with a flipped bit,
   to be caught by the CRC check at delivery. *)
let transmit t link h =
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
      t.pend_dropped <- t.pend_dropped + 1;
      t.in_flight <- t.in_flight - 1;
      t.flits.(h + f_age) <- t.cycles - t.flits.(h + f_age);
      Ring.push t.lost h;
      t.nxt.(link) <- wasted
  | Some fl when Fault.corrupt_flit fl ->
      t.link_corrupts.(link) <- t.link_corrupts.(link) + 1;
      t.corrupted <- t.corrupted + 1;
      t.pend_corrupted <- t.pend_corrupted + 1;
      t.flits.(h + f_payload) <- t.flits.(h + f_payload) lxor Int32.to_int (Fault.corrupt_mask fl);
      place t link h
  | _ -> place t link h

(* Claim the first port of [ports.(k..)] not yet claimed this cycle and
   transmit [h] on it. *)
let rec claim t ports k h =
  k < Array.length ports
  &&
  let link = ports.(k) in
  if t.nxt.(link) = empty then begin
    transmit t link h;
    true
  end
  else claim t ports (k + 1) h

(* Arbitration order at a switch: last cycle's spill in reverse, then
   the input links in port order, stably sorted oldest first. Every
   flit at a switch aged by one since last cycle, so oldest first is
   earliest age origin first. The spill was filled in arbitration
   order, whose origins never decrease, so its reverse sorts by
   reversing each run of equal origins; the few link inputs, sorted
   among themselves, merge in ahead of every run they are strictly
   older than.

   Each flit then takes its preferred port: down toward its
   destination if this switch covers it (switch [i] at level [l]
   covers leaves [i*4^l, (i+1)*4^l)), else up. Failing that, it
   deflects to any free switch-to-switch port (never a wrong leaf
   port), and as a last resort spills into the switch queue. Ports stay
   claimed for the rest of the cycle, so a port group that once had no
   free port is skipped from then on: bit [c] of [full] marks the down
   ports toward child [c], bit 4 the up ports, bit 5 the deflection
   candidates. A spilled flit keeps its age origin and port group (the
   [c] or 4 above) packed beside its handle in the spill buffer, so the
   flits a congested switch holds cycle after cycle are read and
   written sequentially, without touching the flit store. *)
let run_switch t sw =
  let f = t.flits in
  let spill = t.spill.(sw) and m = t.spill_len.(sw) and inputs = t.sw_inputs.(sw) and ins = t.inbuf in
  let k = ref 0 in
  for p = 0 to Array.length inputs - 1 do
    let h = t.cur.(inputs.(p)) in
    if h >= 0 then begin
      let origin = f.(h + f_age) in
      let j = ref !k in
      while !j > 0 && f.(ins.(!j - 1) + f_age) > origin do
        ins.(!j) <- ins.(!j - 1);
        decr j
      done;
      ins.(!j) <- h;
      incr k
    end
  done;
  let k = !k in
  (* Room for every flit of this cycle to spill again. *)
  if 2 * (m + k) > Array.length t.spill_back.(sw) then t.spill_back.(sw) <- Array.make (max 16 (4 * (m + k))) 0;
  let back = t.spill_back.(sw) in
  let i = t.sw_index.(sw) and above = 2 * t.sw_level.(sw) in
  let below = above - 2 in
  let pref = t.sw_pref.(sw) and deflect = t.sw_deflect.(sw) and pmu_deflect = t.pmu_deflect in
  let full = ref 0 and deflected = ref 0 and spilled = ref 0 in
  (* The spill run being taken is [run_start, run_end), from [j] down. *)
  let run_start = ref 0 and run_end = ref 0 and j = ref (-1) and next = ref 0 in
  let h = ref 0 and key = ref 0 in
  for _ = 1 to m + k do
    if !j < !run_start && !run_end < m
       && not (!next < k && f.(ins.(!next) + f_age) < spill.((2 * !run_end) + 1) asr 3)
    then begin
      run_start := !run_end;
      let o = spill.((2 * !run_start) + 1) asr 3 in
      let e = ref (!run_start + 1) in
      while !e < m && spill.((2 * !e) + 1) asr 3 = o do
        incr e
      done;
      run_end := !e;
      j := !e - 1
    end;
    if !j >= !run_start then begin
      h := spill.(2 * !j);
      key := spill.((2 * !j) + 1);
      decr j
    end
    else begin
      h := ins.(!next);
      let d = f.(!h + f_dst) in
      key := (f.(!h + f_age) lsl 3) lor (if d asr above = i then (d asr below) land 3 else 4);
      incr next
    end;
    let g = !key land 7 in
    if !full land (1 lsl g) <> 0 || not (claim t pref.(g) 0 !h) then begin
      full := !full lor (1 lsl g);
      incr deflected;
      (match pmu_deflect with
      | Some s -> Pmu.add s ~cycle:t.cycles 1.0
      | None -> ());
      if !full land 32 <> 0 || not (claim t deflect 0 !h) then begin
        full := !full lor 32;
        back.(2 * !spilled) <- !h;
        back.((2 * !spilled) + 1) <- !key;
        incr spilled
      end
    end
  done;
  t.spill_back.(sw) <- spill;
  t.spill.(sw) <- back;
  t.spill_len.(sw) <- !spilled;
  t.deflections <- t.deflections + !deflected;
  t.pend_deflections <- t.pend_deflections + !deflected

let flush_counters t =
  let flush c n = if n > 0 then Telemetry.incr ~by:n c in
  flush t.c_delivered t.pend_delivered;
  flush t.c_dropped t.pend_dropped;
  flush t.c_corrupted t.pend_corrupted;
  flush t.c_crc_rejects t.pend_crc_rejects;
  flush t.c_deflections t.pend_deflections;
  t.pend_delivered <- 0;
  t.pend_dropped <- 0;
  t.pend_corrupted <- 0;
  t.pend_crc_rejects <- 0;
  t.pend_deflections <- 0

let step t =
  t.cycles <- t.cycles + 1;
  Array.fill t.nxt 0 (Array.length t.nxt) empty;
  (* Deliver flits that arrived on leaf down-links last cycle. *)
  for leaf = 0 to t.leaves - 1 do
    let h = t.cur.(t.leaf_down.(leaf)) in
    if h >= 0 then deliver t h
  done;
  (* Switches level by level; each consumes its input link registers
     (cur) and claims output registers (nxt). A switch with no flit to
     arbitrate has nothing to do. *)
  Array.fill t.arriving_next 0 (Array.length t.arriving_next) 0;
  for sw = 0 to Array.length t.sw_level - 1 do
    if t.arriving.(sw) > 0 || t.spill_len.(sw) > 0 then run_switch t sw
  done;
  (* Injections onto free leaf up-links (the injection wire is a link
     too, so it shares the fault model). *)
  for leaf = 0 to t.leaves - 1 do
    let h = t.pending_inject.(leaf) in
    if h >= 0 && t.nxt.(t.leaf_up.(leaf)) = empty then begin
      t.flits.(h + f_age) <- t.cycles - t.flits.(h + f_age);
      transmit t t.leaf_up.(leaf) h;
      t.pending_inject.(leaf) <- empty
    end
  done;
  let cur = t.cur and arriving = t.arriving in
  t.cur <- t.nxt;
  t.nxt <- cur;
  t.arriving <- t.arriving_next;
  t.arriving_next <- arriving;
  flush_counters t

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

(* Far above any drain the pinned replays and the noc-sweep reach (at
   most 3,764 cycles): a network still busy after a million cycles is
   not draining. *)
let idle_bound = 1_000_000

let run_until_idle (t : t) =
  let start = t.cycles in
  while t.in_flight > 0 do
    if t.cycles - start > idle_bound then
      raise (Undelivered (Printf.sprintf "Bft.run_until_idle: %d flits still in flight after %d cycles" t.in_flight idle_bound));
    step t
  done
