module B = Pld_core.Build
module Flow = Pld_core.Flow
module Runner = Pld_core.Runner
module Pnr = Pld_pnr.Pnr
module N = Pld_netlist.Netlist
module Hls = Pld_hls.Hls_compile
module Store = Pld_engine.Store
module Service = Pld_service.Service
module T = Pld_telemetry.Telemetry
module Digest = Pld_util.Digest_lite

type t = {
  sink : T.t;
  side : Store.t;
  stored : (string, unit) Hashtbl.t;
  busy : (string, float) Hashtbl.t;
  count : (string, float) Hashtbl.t;
  mutable e2e : float;  (** summed wall of the timed operations *)
  mutable replay : float;  (** wall spent replaying, outside any timed operation *)
  mutable compile_wall : float;
  mutable compile_busy : float;  (** layer busy inside those compiles *)
  mutable latency : float;  (** summed service request latency *)
}

let create ~store_dir =
  {
    sink = T.create ();
    side = Store.open_ ~telemetry:(T.create ()) ~dir:store_dir ();
    stored = Hashtbl.create 64;
    busy = Hashtbl.create 32;
    count = Hashtbl.create 32;
    e2e = 0.0;
    replay = 0.0;
    compile_wall = 0.0;
    compile_busy = 0.0;
    latency = 0.0;
  }

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v)
let busy t layer s = add t.busy layer s
let count t name n = add t.count name (float_of_int n)
let total_busy t = Hashtbl.fold (fun _ s acc -> acc +. s) t.busy 0.0

(* A span around one replayed layer call; its duration is that layer's
   busy time. *)
let timed t layer f =
  let t0 = Unix.gettimeofday () in
  let r = T.with_span t.sink ~cat:layer layer f in
  busy t layer (Unix.gettimeofday () -. t0);
  r

let replaying t f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () -> t.replay <- t.replay +. (Unix.gettimeofday () -. t0))

let pnr t (p : Pnr.result) =
  busy t "pnr.place" p.Pnr.place_seconds;
  busy t "pnr.route" p.Pnr.route_seconds;
  busy t "pnr.sta" p.Pnr.sta_seconds;
  busy t "pnr.bitgen" p.Pnr.bitgen_seconds;
  count t "place.moves" p.Pnr.place.Pld_pnr.Place.moves_evaluated;
  count t "place.wirelength" p.Pnr.place.Pld_pnr.Place.wirelength;
  count t "route.iterations" p.Pnr.route.Pld_pnr.Route.iterations;
  count t "route.nets_routed" p.Pnr.route.Pld_pnr.Route.nets_routed;
  count t "route.overused_edges" p.Pnr.route.Pld_pnr.Route.overused_edges;
  count t "bitgen.bytes" (Pld_pnr.Bitgen.size_bytes p.Pnr.bitstream)

(* The same artifact written to (recompiled) or read back from (cache
   hit) a private store, keyed by its bitstream/image digest. The value
   itself is the type witness for the read. *)
let store t ~kind ~hit ~id (v : 'a) =
  let key = Digest.of_string id in
  if hit && not (Hashtbl.mem t.stored key) then Store.put t.side ~kind ~key v;
  Hashtbl.replace t.stored key ();
  let op = if hit then "get" else "put" in
  let t0 = Unix.gettimeofday () in
  T.with_span t.sink ~cat:"engine.store" ("store." ^ op) (fun () ->
      if hit then ignore (Store.find t.side ~kind ~key : 'a option) else Store.put t.side ~kind ~key v);
  let s = Unix.gettimeofday () -. t0 in
  busy t "engine.store" s;
  add t.count ("store." ^ op ^ "_seconds") s;
  count t ("store." ^ op ^ "s") 1

let cache t c =
  List.iter
    (fun (_, hits, misses) ->
      count t "store.hits" hits;
      count t "store.misses" misses)
    (B.cache_stats c);
  Option.iter
    (fun s ->
      let bytes = float_of_int (Store.stats s).Store.s_bytes in
      Hashtbl.replace t.count "store.bytes" (Float.max bytes (get t.count "store.bytes")))
    (B.cache_store c)

let codegen t (s : Flow.o0_operator) =
  let p =
    timed t "riscv.codegen" (fun () ->
        let p = Pld_riscv.Codegen.compile s.Flow.op0 in
        ignore (Pld_riscv.Elf.pack ~page:s.Flow.page0 p);
        p)
  in
  count t "codegen.words" (Array.length p.Pld_riscv.Codegen.image.Pld_riscv.Asm.words)

let hls t op =
  count t "hls.calls" 1;
  ignore (timed t "hls" (fun () -> Hls.compile op))

(* Layer busy of one compile, replaying what it ran: paged builds run
   HLS for every distinct hardware source on every compile (hits
   included) and P&R or codegen only for recompiled operators; a
   monolithic build runs everything or, on a hit, nothing. *)
let attribute_compile t ~wall ?previous (app : B.app) =
  let before = total_busy t in
  (match app.B.monolithic with
  | None ->
      let recompiled inst = List.assoc inst app.B.report.B.per_op_seconds > 0.0 in
      let hw_sources = Hashtbl.create 16 in
      List.iter
        (fun (inst, c) ->
          let hit = not (recompiled inst) in
          match c with
          | B.Hw_page h ->
              let src = Pld_ir.Op.source h.Flow.op in
              if not (Hashtbl.mem hw_sources src) then begin
                Hashtbl.replace hw_sources src ();
                hls t h.Flow.op
              end;
              if not hit then pnr t h.Flow.pnr;
              store t ~kind:B.kind_page ~hit ~id:h.Flow.pnr.Pnr.bitstream.Pld_pnr.Bitgen.crc h
          | B.Soft_page s ->
              if not hit then codegen t s;
              store t ~kind:B.kind_softcore ~hit ~id:(Digest.of_string s.Flow.elf.Pld_riscv.Elf.blob) s)
        app.B.operators
  | Some m ->
      let hit = app.B.report.B.recompiled = 0 in
      if not hit then begin
        List.iter (fun (_, (impl : Hls.impl)) -> hls t impl.Hls.op) m.Flow.impls;
        let hls_syn = List.fold_left (fun acc (_, (i : Hls.impl)) -> acc +. i.Hls.syn_seconds) 0.0 m.Flow.impls in
        busy t "netlist" (Float.max 0.0 (m.Flow.times3.Flow.syn -. hls_syn));
        count t "netlist.cells" (N.cell_count m.Flow.merged);
        count t "netlist.nets" (N.net_count m.Flow.merged);
        Option.iter
          (fun (p : B.app) ->
            let old = (B.monolithic_exn p).Flow.merged in
            ignore (timed t "netlist" (fun () -> N.diff old m.Flow.merged)))
          previous;
        match m.Flow.pnr3.Pnr.delta with
        | None -> pnr t m.Flow.pnr3
        | Some d ->
            busy t "pnr.delta" m.Flow.pnr3.Pnr.seconds;
            count t "delta.attempts" 1;
            (match d.Pnr.fallback with None -> count t "delta.hits" 1 | Some _ -> count t "delta.fallbacks" 1);
            count t "delta.cells_moved" d.Pnr.cells_moved;
            count t "delta.nets_rerouted" d.Pnr.nets_rerouted
      end;
      store t ~kind:B.kind_mono ~hit ~id:m.Flow.pnr3.Pnr.bitstream.Pld_pnr.Bitgen.crc m);
  t.compile_wall <- t.compile_wall +. wall;
  t.compile_busy <- t.compile_busy +. (total_busy t -. before)

let compile t ~wall ?previous app =
  replaying t (fun () -> attribute_compile t ~wall ?previous app);
  t.e2e <- t.e2e +. wall

let run t ~deploy_s ~run_s ~check_s (app : B.app) (r : Runner.result) =
  replaying t (fun () ->
      busy t "pld.loader" deploy_s;
      busy t "check" check_s;
      let noc_s =
        match app.B.monolithic with
        | Some _ -> 0.0
        | None ->
            let t0 = Unix.gettimeofday () in
            let _, res = timed t "noc" (fun () -> Runner.noc_replay app r.Runner.channel_stats) in
            count t "noc.cycles" res.Pld_noc.Traffic.cycles;
            Unix.gettimeofday () -. t0
      in
      (* What the run spent outside the NoC replay is the functional
         engine Runner picked: the softcore co-simulation when any
         softcore page is present, the KPN otherwise. *)
      let engine_s = Float.max 0.0 (run_s -. noc_s) in
      match r.Runner.softcore_cycles with
      | [] ->
          busy t "kpn" engine_s;
          count t "kpn.tokens"
            (List.fold_left (fun acc (s : Pld_kpn.Network.channel_stats) -> acc + s.Pld_kpn.Network.tokens) 0
               r.Runner.channel_stats)
      | cycles ->
          busy t "riscv.cosim" engine_s;
          count t "softcore.cycles" (List.fold_left (fun acc (_, c) -> acc + c) 0 cycles));
  t.e2e <- t.e2e +. deploy_s +. run_s +. check_s

let request t ~latency ~late (o : Service.outcome) =
  replaying t (fun () ->
      busy t "gen" late;
      busy t "service.queue" o.Service.o_queue_seconds;
      if o.Service.o_deduped then count t "service.dedup" 1
      else begin
        count t "service.op_hits" o.Service.o_cache_hits;
        count t "service.op_misses" o.Service.o_recompiled;
        attribute_compile t ~wall:o.Service.o_build_seconds o.Service.o_app
      end;
      if o.Service.o_cross_tenant then count t "service.cross_hits" 1);
  t.latency <- t.latency +. latency;
  t.e2e <- t.e2e +. latency

let service_rate t rps = Hashtbl.replace t.count "service.max_rate_rps" (float_of_int rps)

let generator t ~sent ~rejected ~late_frac =
  count t "gen.sent" sent;
  count t "service.rejected" rejected;
  Hashtbl.replace t.count "gen.late_frac" late_frac

let ratio a b = if b > 0.0 then a /. b else 0.0

let metrics t =
  let b = get t.busy and c = get t.count in
  let frac layer = ratio (b layer) t.e2e in
  List.map (fun (name, unit_, v) -> Measure.metric name unit_ v)
  [
    ("hls.calls", "count", c "hls.calls");
    ("hls.busy_frac", "ratio", frac "hls");
    ("netlist.cells", "count", c "netlist.cells");
    ("netlist.nets", "count", c "netlist.nets");
    ("netlist.busy_frac", "ratio", frac "netlist");
    ("place.busy_frac", "ratio", frac "pnr.place");
    ("place.moves", "count", c "place.moves");
    ("place.moves_per_s", "1/s", ratio (c "place.moves") (b "pnr.place"));
    ("place.wirelength", "count", c "place.wirelength");
    ("route.busy_frac", "ratio", frac "pnr.route");
    ("route.iterations", "count", c "route.iterations");
    ("route.nets_routed", "count", c "route.nets_routed");
    ("route.overused_edges", "count", c "route.overused_edges");
    ("sta.busy_frac", "ratio", frac "pnr.sta");
    ("bitgen.busy_frac", "ratio", frac "pnr.bitgen");
    ("bitgen.bytes", "bytes", c "bitgen.bytes");
    ("delta.busy_frac", "ratio", frac "pnr.delta");
    ("delta.hit_rate", "ratio", ratio (c "delta.hits") (c "delta.attempts"));
    ("delta.fallbacks", "count", c "delta.fallbacks");
    ("delta.cells_moved", "count", c "delta.cells_moved");
    ("delta.nets_rerouted", "count", c "delta.nets_rerouted");
    ("codegen.busy_frac", "ratio", frac "riscv.codegen");
    ("codegen.words", "count", c "codegen.words");
    ("cosim.busy_frac", "ratio", frac "riscv.cosim");
    ("softcore.cycles", "cycles", c "softcore.cycles");
    ("softcore.mcycles_per_s", "Mcycles/s", ratio (c "softcore.cycles" /. 1e6) (b "riscv.cosim"));
    ("kpn.busy_frac", "ratio", frac "kpn");
    ("kpn.tokens", "count", c "kpn.tokens");
    ("kpn.tokens_per_s", "1/s", ratio (c "kpn.tokens") (b "kpn"));
    ("noc.busy_frac", "ratio", frac "noc");
    ("noc.cycles", "cycles", c "noc.cycles");
    ("noc.cycles_per_s", "1/s", ratio (c "noc.cycles") (b "noc"));
    ("store.get_s", "s", ratio (c "store.get_seconds") (c "store.gets"));
    ("store.put_s", "s", ratio (c "store.put_seconds") (c "store.puts"));
    ("store.bytes", "bytes", c "store.bytes");
    ("store.hits", "count", c "store.hits");
    ("store.misses", "count", c "store.misses");
    ("store.busy_frac", "ratio", frac "engine.store");
    ("build.gap_frac", "ratio", ratio (t.compile_wall -. t.compile_busy) t.compile_wall);
    ("loader.busy_frac", "ratio", frac "pld.loader");
    ("check.busy_frac", "ratio", frac "check");
    ("service.queue_frac", "ratio", ratio (b "service.queue") t.latency);
    ("service.dedup", "count", c "service.dedup");
    ("service.cross_hits", "count", c "service.cross_hits");
    ("service.op_hit_rate", "ratio", ratio (c "service.op_hits") (c "service.op_hits" +. c "service.op_misses"));
    ("service.rejected", "count", c "service.rejected");
    ("service.max_rate_rps", "1/s", c "service.max_rate_rps");
    ("gen.sent", "count", c "gen.sent");
    ("gen.late_frac", "ratio", c "gen.late_frac");
    ("attrib.explained_frac", "ratio", ratio (total_busy t) t.e2e);
    ("trace.overhead_frac", "ratio", ratio t.replay t.e2e);
  ]

let write_trace t ~file = T.write_chrome t.sink ~file
