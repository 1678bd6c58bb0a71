module Telemetry = Pld_telemetry.Telemetry

type link = {
  src_leaf : int;
  src_stream : int;
  dst_leaf : int;
  dst_stream : int;
  tokens : int;
}

type result = {
  cycles : int;
  delivered : int;
  deflections : int;
  dropped : int;
  corrupted : int;
  retransmitted : int;
  avg_latency : float;
}

let total_tokens links = List.fold_left (fun acc l -> acc + l.tokens) 0 links
let active l = l.tokens > 0 && l.src_leaf <> l.dst_leaf

let configure_links net links =
  List.iter
    (fun l ->
      Bft.configure net ~leaf:l.src_leaf ~stream:l.src_stream ~dst_leaf:l.dst_leaf
        ~dst_stream:l.dst_stream)
    links

(* The overlay NoC clock: modeled spans convert cycles to seconds. *)
let overlay_hz = 200.0e6

(* Cycles without a delivery after which [replay] gives up. The pinned
   replays, lossy ones (5% drop, 5% corruption) included, and the
   noc-sweep schedules never go more than 8 cycles without a delivery,
   and the longest noc-sweep drain is 3,764 cycles for a whole
   schedule: links that deliver nothing for 100k cycles lose flits
   faster than retransmission recovers them. *)
let stall_cycles = 100_000

let replay net links =
  let tele = Bft.telemetry net in
  Telemetry.with_span tele ~cat:"noc"
    ~attrs:[ ("links", string_of_int (List.length links)) ]
    "replay"
  @@ fun () ->
  configure_links net links;
  let start = Bft.stats net in
  let links = List.filter active links in
  let leaves = Bft.leaf_count net in
  (* Per-leaf round-robin schedule over its outgoing streams, in link
     order: [next.(leaf)] is the stream that leads the order this
     cycle, and it advances every cycle. *)
  let streams = Array.make leaves [||] and left = Array.make leaves [||] and next = Array.make leaves 0 in
  for leaf = 0 to leaves - 1 do
    let mine = List.filter (fun l -> l.src_leaf = leaf) links in
    streams.(leaf) <- Array.of_list (List.map (fun l -> l.src_stream) mine);
    left.(leaf) <- Array.of_list (List.map (fun l -> l.tokens) mine)
  done;
  let senders = Array.of_list (List.filter (fun leaf -> streams.(leaf) <> [||]) (List.init leaves Fun.id)) in
  (* Sender-side retransmission queues: lost flits go back to their
     source leaf and take priority over fresh tokens on its single
     injection port. *)
  let retx = Array.init leaves (fun _ -> Ring.create ()) in
  let backlog = ref 0 (* flits waiting in [retx] *) in
  let retransmitted = ref 0 in
  let cycles = ref 0 and last_delivery = ref 0 in
  let remaining = ref (total_tokens links) in
  while !remaining > 0 do
    if !cycles - !last_delivery >= stall_cycles then
      raise
        (Bft.Undelivered
           (Printf.sprintf "Traffic.replay: %d of %d tokens undelivered, none delivered in %d cycles" !remaining
              (total_tokens links) stall_cycles));
    incr cycles;
    let lost = ref (Bft.pop_lost net) in
    while !lost >= 0 do
      Ring.push retx.(Bft.lost_src net !lost) !lost;
      incr backlog;
      lost := Bft.pop_lost net
    done;
    (* A retransmission takes its leaf's single injection port for the
       cycle, ahead of fresh tokens. *)
    if !backlog > 0 then
      for leaf = 0 to leaves - 1 do
        let q = retx.(leaf) in
        if (not (Ring.is_empty q)) && Bft.resend net ~leaf (Ring.peek q) then begin
          ignore (Ring.pop q);
          decr backlog;
          incr retransmitted
        end
      done;
    (* Each sender offers the first of its streams with tokens left, in
       round-robin order; a port a retransmission took refuses it. *)
    for n = 0 to Array.length senders - 1 do
      let leaf = senders.(n) in
      let k = Array.length streams.(leaf) in
      let r = next.(leaf) and left = left.(leaf) in
      let j = ref 0 in
      while !j < k && left.((r + !j) mod k) = 0 do
        incr j
      done;
      let s = (r + !j) mod k in
      if !j < k && Bft.send net ~leaf ~stream:streams.(leaf).(s) left.(s) then left.(s) <- left.(s) - 1;
      next.(leaf) <- (r + 1) mod k
    done;
    Bft.step net;
    let delivered = Bft.discard_ejected net in
    if delivered > 0 then begin
      remaining := !remaining - delivered;
      last_delivery := !cycles
    end
  done;
  let fin = Bft.stats net in
  let delivered = fin.Bft.delivered - start.Bft.delivered in
  Telemetry.incr ~by:!retransmitted (Telemetry.counter tele "noc.retransmitted");
  (* Per-link utilization as high-water gauges (cumulative over the
     network's lifetime, so max keeps the final figure). *)
  List.iter
    (fun (link, flits) ->
      Telemetry.max_gauge
        (Telemetry.gauge tele (Printf.sprintf "noc.link.%d.flits" link))
        (float_of_int flits))
    (Bft.link_traffic net);
  let mt = Telemetry.modeled_track tele ~cat:"noc" ~name:"overlay replay" in
  Telemetry.modeled_span tele mt
    ~attrs:[ ("cycles", string_of_int !cycles); ("delivered", string_of_int delivered) ]
    "replay" (float_of_int !cycles /. overlay_hz);
  {
    cycles = !cycles;
    delivered;
    deflections = fin.Bft.deflections - start.Bft.deflections;
    dropped = fin.Bft.dropped - start.Bft.dropped;
    corrupted = fin.Bft.corrupted - start.Bft.corrupted;
    retransmitted = !retransmitted;
    avg_latency =
      (if delivered = 0 then 0.0
       else float_of_int (fin.Bft.total_latency - start.Bft.total_latency) /. float_of_int delivered);
  }

(* Host retransmission rounds for lost configuration packets before
   the link is declared dead. *)
let max_rounds = 1000

let config_cycles net links =
  let tele = Bft.telemetry net in
  Telemetry.with_span tele ~cat:"noc"
    ~attrs:[ ("packets", string_of_int (List.length links)) ]
    "config"
  @@ fun () ->
  let start = (Bft.stats net).Bft.cycles in
  let pending =
    List.map
      (fun l ->
        Bft.config_flit ~src_leaf:0 ~dst_leaf:l.src_leaf ~reg:l.src_stream ~dst_leaf_value:l.dst_leaf
          ~dst_stream_value:l.dst_stream ())
      links
  in
  let rec push = function
    | [] -> ()
    | f :: rest ->
        if Bft.inject net ~leaf:0 f then push rest
        else begin
          Bft.step net;
          push (f :: rest)
        end
  in
  (* Lossy links can eat config packets too: the host notices the loss
     (readback of the routing registers) and re-sends until the whole
     batch lands. *)
  let rec drive round pending =
    if round > max_rounds then
      raise
        (Bft.Undelivered
           (Printf.sprintf "Traffic.config_cycles: configuration packets still lost after %d retransmission rounds"
              max_rounds));
    push pending;
    Bft.run_until_idle net;
    match Bft.take_lost net with
    | [] -> ()
    | lost -> drive (round + 1) (List.map Bft.refresh lost)
  in
  drive 0 pending;
  (Bft.stats net).Bft.cycles - start
