open Pld_noc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let flit dst payload = Bft.data_flit ~dst_leaf:dst ~dst_stream:0 payload

let test_single_delivery () =
  let net = Bft.create () in
  check_bool "inject" true (Bft.inject net ~leaf:1 (flit 5 42l));
  Bft.run_until_idle net;
  match Bft.eject net ~leaf:5 with
  | [ (0, 42l) ] -> ()
  | l -> Alcotest.failf "got %d flits" (List.length l)

let test_inject_port_busy () =
  let net = Bft.create () in
  check_bool "first" true (Bft.inject net ~leaf:1 (flit 5 1l));
  check_bool "second rejected same cycle" false (Bft.inject net ~leaf:1 (flit 5 2l));
  Bft.step net;
  check_bool "after step ok" true (Bft.inject net ~leaf:1 (flit 5 2l));
  Bft.run_until_idle net;
  check_int "both delivered" 2 (List.length (Bft.eject net ~leaf:5))

let test_config_packets () =
  let net = Bft.create () in
  check_bool "cfg" true
    (Bft.inject net ~leaf:0
       (Bft.config_flit ~dst_leaf:7 ~reg:2 ~dst_leaf_value:9 ~dst_stream_value:4 ()));
  Bft.run_until_idle net;
  Alcotest.(check (option (pair int int))) "register written" (Some (9, 4)) (Bft.lookup_route net ~leaf:7 ~stream:2);
  (* Re-linking without recompiling: overwrite the register. *)
  Bft.configure net ~leaf:7 ~stream:2 ~dst_leaf:3 ~dst_stream:1;
  Alcotest.(check (option (pair int int))) "relinked" (Some (3, 1)) (Bft.lookup_route net ~leaf:7 ~stream:2)

let test_no_loss_under_load () =
  let net = Bft.create () in
  let rng = Pld_util.Rng.create 5 in
  let sent = ref 0 in
  let expected = Array.make (Bft.leaf_count net) 0 in
  for _ = 1 to 60 do
    for leaf = 1 to 20 do
      let dst = 1 + Pld_util.Rng.int rng 20 in
      if Bft.inject net ~leaf (flit dst (Int32.of_int !sent)) then begin
        incr sent;
        expected.(dst) <- expected.(dst) + 1
      end
    done;
    Bft.step net
  done;
  Bft.run_until_idle net;
  let received = ref 0 in
  for leaf = 0 to Bft.leaf_count net - 1 do
    let got = List.length (Bft.eject net ~leaf) in
    check_int (Printf.sprintf "leaf %d count" leaf) expected.(leaf) got;
    received := !received + got
  done;
  check_int "all delivered" !sent !received;
  check_bool "sent something" true (!sent > 500)

let test_latency_grows_with_distance () =
  (* Same-subtree traffic should beat cross-tree traffic. *)
  let near = Bft.create () in
  check_bool "x" true (Bft.inject near ~leaf:0 (flit 1 7l));
  Bft.run_until_idle near;
  let near_cycles = (Bft.stats near).Bft.cycles in
  let far = Bft.create () in
  check_bool "x" true (Bft.inject far ~leaf:0 (flit 63 7l));
  Bft.run_until_idle far;
  check_bool "far takes longer" true ((Bft.stats far).Bft.cycles > near_cycles)

let test_traffic_serialization () =
  (* One leaf sending n tokens takes ~n cycles: single injection port. *)
  let net = Bft.create () in
  let r =
    Traffic.replay net
      [ { Traffic.src_leaf = 3; src_stream = 0; dst_leaf = 9; dst_stream = 0; tokens = 400 } ]
  in
  check_int "delivered" 400 r.Traffic.delivered;
  check_bool "cycles close to token count" true (r.Traffic.cycles >= 400 && r.Traffic.cycles < 450)

let test_traffic_parallel_streams () =
  let net = Bft.create () in
  let links =
    List.init 8 (fun i ->
        { Traffic.src_leaf = 1 + i; src_stream = 0; dst_leaf = 10 + i; dst_stream = 0; tokens = 300 })
  in
  let r = Traffic.replay net links in
  check_int "delivered" 2400 r.Traffic.delivered;
  check_bool "parallel links overlap" true (r.Traffic.cycles < 900)

let test_traffic_shared_port_bottleneck () =
  (* Two streams out of one leaf share one injection port: drain time
     doubles — the -O1 bandwidth bottleneck of §7.4. *)
  let net = Bft.create () in
  let links =
    [
      { Traffic.src_leaf = 2; src_stream = 0; dst_leaf = 5; dst_stream = 0; tokens = 200 };
      { Traffic.src_leaf = 2; src_stream = 1; dst_leaf = 9; dst_stream = 1; tokens = 200 };
    ]
  in
  let r = Traffic.replay net links in
  check_bool "serialized" true (r.Traffic.cycles >= 400)

let test_config_cycles_small () =
  (* Linking is a few packets per page: configuring 22 links takes
     well under a microsecond at 200 MHz. *)
  let net = Bft.create () in
  let links =
    List.init 22 (fun i ->
        { Traffic.src_leaf = 1 + i; src_stream = 0; dst_leaf = 1 + ((i + 1) mod 22); dst_stream = 0; tokens = 0 })
  in
  let cycles = Traffic.config_cycles net links in
  check_bool "fast linking" true (cycles < 200);
  List.iter
    (fun (l : Traffic.link) ->
      Alcotest.(check (option (pair int int)))
        "route installed"
        (Some (l.Traffic.dst_leaf, l.Traffic.dst_stream))
        (Bft.lookup_route net ~leaf:l.Traffic.src_leaf ~stream:l.Traffic.src_stream))
    links

let test_relay_vs_bft () =
  (* Dedicated wires beat the shared BFT when one leaf fans out. *)
  let fp = Pld_fabric.Floorplan.u50 () in
  let links =
    List.init 3 (fun i ->
        { Traffic.src_leaf = 1; src_stream = i; dst_leaf = 5 + i; dst_stream = i; tokens = 200 })
  in
  let net = Bft.create ~leaves:32 () in
  let bft = Traffic.replay net links in
  let relay = Relay.replay fp links in
  check_bool "bft serializes at the shared port" true (bft.Traffic.cycles >= 600);
  check_bool "dedicated wires stream in parallel" true (relay.Relay.cycles < 300);
  check_bool "dedicated wires cost area" true (relay.Relay.wire_luts > 0);
  check_bool "relinking costs a compile" true (relay.Relay.relink_seconds > 0.0)

let test_link_gauges_and_hop_histogram () =
  (* A congested dup/zip shape: leaf 1 duplicates one stream toward
     three consumers while three producers zip back into leaf 5 — the
     fan-out serializes at leaf 1's injection port and the reconverging
     half contends for leaf 5's ejection path, so delivered-flit ages
     stretch well past the uncongested diameter. *)
  let module Telemetry = Pld_telemetry.Telemetry in
  let tele = Telemetry.create () in
  let net = Bft.create ~telemetry:tele () in
  let dup =
    List.init 3 (fun i ->
        { Traffic.src_leaf = 1; src_stream = i; dst_leaf = 6 + i; dst_stream = 0; tokens = 120 })
  in
  let zip =
    List.init 3 (fun i ->
        { Traffic.src_leaf = 2 + i; src_stream = 3; dst_leaf = 5; dst_stream = i; tokens = 120 })
  in
  let links = dup @ zip in
  let r = Traffic.replay net links in
  check_int "everything delivered" (Traffic.total_tokens links) r.Traffic.delivered;
  (* Per-link high-water gauges mirror the cumulative flit counts the
     switches themselves report. *)
  let traffic = Bft.link_traffic net in
  check_bool "some physical link carried traffic" true (traffic <> []);
  List.iter
    (fun (link, flits) ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "noc.link.%d.flits gauge matches switch count" link)
        (Some (float_of_int flits))
        (Telemetry.gauge_value tele (Printf.sprintf "noc.link.%d.flits" link)))
    traffic;
  let before = List.map (fun (link, flits) -> (link, float_of_int flits)) traffic in
  (* A second, lighter replay on the same network must never lower a
     gauge: the counts are cumulative and the recording is max-based. *)
  let _ =
    Traffic.replay net
      [ { Traffic.src_leaf = 20; src_stream = 7; dst_leaf = 21; dst_stream = 0; tokens = 1 } ]
  in
  List.iter
    (fun (link, hw) ->
      match Telemetry.gauge_value tele (Printf.sprintf "noc.link.%d.flits" link) with
      | None -> Alcotest.failf "gauge for link %d vanished" link
      | Some v -> check_bool (Printf.sprintf "link %d high-water kept" link) true (v >= hw))
    before;
  (* Hop-latency histogram: the power-of-two bucket edges are part of
     the exposition contract, and congestion pushes mass past the
     8-cycle bucket an idle network would stay under. *)
  let buckets = Telemetry.bucket_counts tele "noc.hop_latency" in
  Alcotest.(check (list (float 1e-9)))
    "bucket edges" [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; Float.infinity ]
    (List.map fst buckets);
  let total = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
  check_int "one age sample per delivered flit" (r.Traffic.delivered + 1) total;
  let congested = List.fold_left (fun a (e, c) -> if e > 8.0 then a + c else a) 0 buckets in
  check_bool "congestion reaches the high buckets" true (congested > 0)

let prop_random_traffic_no_loss =
  QCheck.Test.make ~name:"random traffic: everything delivered exactly once" ~count:25
    QCheck.(list_of_size (Gen.int_range 1 12) (pair (int_range 1 30) (int_range 1 30)))
    (fun pairs ->
      let net = Bft.create () in
      let links =
        List.mapi
          (fun i (s, d) ->
            { Traffic.src_leaf = s; src_stream = i; dst_leaf = d; dst_stream = i; tokens = 20 })
          (List.filter (fun (s, d) -> s <> d) pairs)
      in
      QCheck.assume (links <> []);
      (* Distinct sources may repeat; merge tokens by giving each link a
         distinct stream id, which Traffic handles. *)
      let r = Traffic.replay net links in
      r.Traffic.delivered = List.fold_left (fun a (l : Traffic.link) -> a + l.Traffic.tokens) 0 links)

(* ---------- exactness pins ---------- *)

(* The replay is a cycle-level model, and every figure it reports is a
   contract: the -O1 perf model, the fault-recovery counters and the
   telemetry all read it. These pins digest everything a replay
   exposes on the six Rosetta benches, so a change to how the network
   is simulated must keep each cycle, arbitration and counter. *)

module Telemetry = Pld_telemetry.Telemetry

let hw = Pld_ir.Graph.Hw { page_hint = None }

let replay_digest ~cfg (r : Traffic.result) net tele =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  add "cfg %d\n" cfg;
  add "result %d %d %d %d %d %d %h\n" r.Traffic.cycles r.Traffic.delivered r.Traffic.deflections
    r.Traffic.dropped r.Traffic.corrupted r.Traffic.retransmitted r.Traffic.avg_latency;
  let s = Bft.stats net in
  add "stats %d %d %d %d %d %d %d\n" s.Bft.cycles s.Bft.delivered s.Bft.deflections s.Bft.dropped
    s.Bft.corrupted s.Bft.max_latency s.Bft.total_latency;
  List.iter (fun (l, n) -> add "link %d %d\n" l n) (Bft.link_traffic net);
  List.iter (fun (l, d, c) -> add "fault %d %d %d\n" l d c) (Bft.link_faults net);
  List.iter (fun (e, n) -> add "bucket %h %d\n" e n) (Telemetry.bucket_counts tele "noc.hop_latency");
  List.iter (fun x -> add "%h " x) (Telemetry.samples tele "noc.hop_latency");
  List.iter
    (fun c -> add "\n%s %d" c (Telemetry.counter_value tele c))
    [ "noc.delivered"; "noc.dropped"; "noc.corrupted"; "noc.crc_rejects"; "noc.deflections"; "noc.retransmitted" ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (bench, level) -> (config cycles, replay cycles, digest), recorded
   before the network's data structures were rewritten. *)
let replay_pins =
  [
    ("rendering -O0", (9, 260, "8ee581f7d7c5f27c004dd66f63e5d173"));
    ("rendering -O1", (10, 373, "bc9b15d70a63c4c79586fd08f39e1db8"));
    ("digit -O0", (11, 76, "07b84ab34511d9c5dcc22f043ed251bb"));
    ("digit -O1", (12, 108, "c5475208ed7388c882b86997683542d5"));
    ("spam -O0", (14, 1028, "9e6e68582b7fb4ad3dab61e1ea5a7ab1"));
    ("spam -O1", (14, 1065, "340157f6134fe0188772715190f3319d"));
    ("optical -O0", (12, 1795, "88c887c0219010a606cb360aa1d74f11"));
    ("optical -O1", (13, 1861, "f0b85dafbd629518ced2a6e8dc5038b2"));
    ("face -O0", (14, 1028, "5894f7410a31f6a59a860c8cf2bc63f1"));
    ("face -O1", (14, 1028, "e763079021dd6b18ab1dd836a5c0d00c"));
    ("bnn -O0", (10, 260, "5f476d834da457b4302138f213005b5e"));
    ("bnn -O1", (10, 262, "b59be9fc47688d4a0da2e2e99dffa516"));
  ]

(* A Rosetta bench's NoC links at a level: leaf count from the
   floorplan, token counts from the reference run. *)
let bench_links name level =
  let b = Pld_rosetta.Suite.find name in
  let fp = Pld_fabric.Floorplan.u50 () in
  let g = b.Pld_rosetta.Suite.graph hw in
  let inputs = b.Pld_rosetta.Suite.workload () in
  let app = Pld_core.Build.compile fp g ~level in
  let stats = (Pld_kpn.Run_graph.run g ~inputs).Pld_kpn.Run_graph.channel_stats in
  (Pld_core.Flow.noc_leaves fp, Pld_core.Runner.noc_links app stats)

let rosetta_replay name level () =
  let leaves, links = bench_links name level in
  let tele = Telemetry.create () in
  let net = Bft.create ~leaves ~telemetry:tele () in
  let cfg = Traffic.config_cycles net links in
  let r = Traffic.replay net links in
  let key = Printf.sprintf "%s -O%s" name (match level with Pld_core.Build.O0 -> "0" | _ -> "1") in
  Alcotest.(check (triple int int string))
    key (List.assoc key replay_pins)
    (cfg, r.Traffic.cycles, replay_digest ~cfg r net tele)

let benches = [ "rendering"; "digit"; "spam"; "optical"; "face"; "bnn" ]

(* A profiled -O1 rendering run: every PMU series, the NoC's per-link
   flit series, queue delay and deflections among them. *)
let pmu_pin = "1f5107c114f969cb6b76548fad959f8f"

let test_pmu_series_pinned () =
  let b = Pld_rosetta.Suite.find "rendering" in
  let fp = Pld_fabric.Floorplan.u50 () in
  let g = b.Pld_rosetta.Suite.graph hw in
  let inputs = b.Pld_rosetta.Suite.workload () in
  let app = Pld_core.Build.compile fp g ~level:Pld_core.Build.O1 in
  let pmu = Pld_telemetry.Pmu.create () in
  let _ = Pld_core.Runner.run ~pmu app ~inputs in
  let json = Pld_telemetry.Json.to_string (Pld_telemetry.Pmu.to_json pmu) in
  Alcotest.(check string) "pmu digest" pmu_pin (Digest.to_hex (Digest.string json))

(* [bench noc-sweep]: optical's -O1 traffic with every link's token
   count rescaled to a payload width, drained on a 32-leaf network. *)
let test_noc_sweep_pinned () =
  let _, links = bench_links "optical" Pld_core.Build.O1 in
  let drain width =
    let scale tokens = ((tokens * 32) + width - 1) / width in
    let scaled = List.map (fun (l : Traffic.link) -> { l with Traffic.tokens = scale l.Traffic.tokens }) links in
    (Traffic.replay (Bft.create ~leaves:32 ~telemetry:(Telemetry.create ()) ()) scaled).Traffic.cycles
  in
  Alcotest.(check (list int)) "drain cycles at 16/32/64/128 bits" [ 3764; 1861; 937; 464 ]
    (List.map drain [ 16; 32; 64; 128 ])

(* A replay's cost is per flit-hop (a link traversal or a deflection):
   optical keeps hundreds of flits circling its hot switches, and every
   one of them is re-arbitrated each cycle. Those hops must allocate
   nothing; what is left is per delivered flit (the hop histogram) and
   per replay. *)
let test_replay_allocation () =
  let leaves, links = bench_links "optical" Pld_core.Build.O1 in
  let net = Bft.create ~leaves ~telemetry:(Telemetry.create ()) () in
  ignore (Traffic.config_cycles net links);
  let traversals () = List.fold_left (fun a (_, n) -> a + n) 0 (Bft.link_traffic net) in
  let before = traversals () in
  let w0 = Gc.minor_words () in
  let r = Traffic.replay net links in
  let words = Gc.minor_words () -. w0 in
  let hops = traversals () - before + r.Traffic.deflections in
  check_bool "a congested replay" true (hops > 1_000_000);
  let per_hop = words /. float_of_int hops in
  check_bool (Printf.sprintf "%.3f minor words per flit-hop < 1" per_hop) true (per_hop < 1.0)

(* [Card] builds a network per overlay load and [Runner] one per run:
   creating one sizes its tables by the tree, never by traffic. *)
let test_create_is_cheap () =
  let tele = Telemetry.create () in
  ignore (Bft.create ~leaves:32 ~telemetry:tele ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Bft.create ~leaves:32 ~telemetry:tele ()));
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "create ~leaves:32 allocates %.0f words <= 5000" words) true (words <= 5000.0)

let test_idle_cycle_allocates_nothing () =
  let net = Bft.create ~leaves:32 ~telemetry:(Telemetry.create ()) () in
  Bft.step net;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Bft.step net
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "%.0f minor words over 1000 idle cycles" words) true (words < 1000.0)

let suite =
  [
    ("single flit delivery", `Quick, test_single_delivery);
    ("injection port busy", `Quick, test_inject_port_busy);
    ("config packets write registers", `Quick, test_config_packets);
    ("no loss under load", `Quick, test_no_loss_under_load);
    ("latency grows with distance", `Quick, test_latency_grows_with_distance);
    ("traffic: single link serializes", `Quick, test_traffic_serialization);
    ("traffic: parallel links overlap", `Quick, test_traffic_parallel_streams);
    ("traffic: shared port bottleneck", `Quick, test_traffic_shared_port_bottleneck);
    ("linking config is cheap", `Quick, test_config_cycles_small);
    ("relay-station alternative", `Quick, test_relay_vs_bft);
    ("link gauges and hop-latency buckets under dup/zip congestion", `Quick, test_link_gauges_and_hop_histogram);
    QCheck_alcotest.to_alcotest prop_random_traffic_no_loss;
    ("rosetta pmu series pinned (-O1 rendering, profiled)", `Slow, test_pmu_series_pinned);
    ("noc-sweep drain cycles pinned", `Slow, test_noc_sweep_pinned);
    ("optical replay allocates under a word per flit-hop", `Slow, test_replay_allocation);
    ("create allocates a bounded table", `Quick, test_create_is_cheap);
    ("an idle cycle allocates nothing", `Quick, test_idle_cycle_allocates_nothing);
  ]
  @ List.concat_map
      (fun name ->
        [
          (Printf.sprintf "rosetta %s: -O1 replay pinned" name, `Slow, rosetta_replay name Pld_core.Build.O1);
          (Printf.sprintf "rosetta %s: -O0 replay pinned" name, `Slow, rosetta_replay name Pld_core.Build.O0);
        ])
      benches
