open Pld_ir
module Fp = Pld_fabric.Floorplan
module Hls = Pld_hls.Hls_compile
module Digest = Pld_util.Digest_lite
module Jobgraph = Pld_engine.Jobgraph
module Executor = Pld_engine.Executor
module Store = Pld_engine.Store
module Telemetry = Pld_telemetry.Telemetry

type level = O0 | O1 | O3 | Vitis

let level_name = function O0 -> "-O0" | O1 -> "-O1" | O3 -> "-O3" | Vitis -> "vitis"

let level_of_name = function
  | "-O0" | "O0" | "o0" | "0" -> Ok O0
  | "-O1" | "O1" | "o1" | "1" -> Ok O1
  | "-O3" | "O3" | "o3" | "3" -> Ok O3
  | "vitis" | "Vitis" -> Ok Vitis
  | s -> Error (Printf.sprintf "unknown level %S (use O0, O1, O3 or vitis)" s)

exception Build_error = Flow.Build_error

type compiled_operator = Hw_page of Flow.o1_operator | Soft_page of Flow.o0_operator

type report = {
  level : level;
  per_op_seconds : (string * float) list;
  phases : Flow.phase_times;
  serial_seconds : float;
  parallel_seconds : float;
  wall_seconds : float;
  workers : int;
  jobs : int;
  cache_hits : int;
  recompiled : int;
  by_kind : (string * int * int) list;
  quarantined : (string * string) list;
  fallbacks : string list;
  stored : int;
}

type app = {
  graph : Graph.t;
  fp : Fp.t;
  level : level;
  assignment : (string * int) list;
  operators : (string * compiled_operator) list;
  monolithic : Flow.o3_app option;
  report : report;
}

let monolithic_exn (app : app) =
  match app.monolithic with
  | Some m -> m
  | None ->
      raise
        (Build_error
           (Printf.sprintf "app %s (%s): no monolithic artifact — only -O3/vitis builds have one"
              app.graph.Graph.graph_name (level_name app.level)))

(* ---------- cache ---------- *)

let kind_page = "page"
let kind_softcore = "softcore"
let kind_mono = "mono"
let kind_profile = "profile"

type counter = { mutable hits : int; mutable misses : int }

(* One typed table per artifact kind: a page bitstream can never come
   back under a softcore key (or vice versa) because the lookup goes
   through the kind's own table and store namespace. *)
type cache = {
  hw : (Digest.t, Flow.o1_operator) Hashtbl.t;
  soft : (Digest.t, Flow.o0_operator) Hashtbl.t;
  mono : (Digest.t, Flow.o3_app) Hashtbl.t;
  (* Fabric profiles are persisted as JSON documents (closure-free, so
     Marshal-safe in the store) keyed by the build's job key — a cached
     build still carries the profile of the run that produced it. *)
  profiles : (Digest.t, Pld_telemetry.Json.t) Hashtbl.t;
  store : Store.t option;
  persist : bool;
      (* a read-only view shares every table and the store for lookups
         but never writes artifacts back to disk — how the service
         serves tenants whose cache-write budget is spent *)
  lock : Mutex.t;
  counters : (string * counter) list;
}

let create_cache ?dir ?max_bytes ?quarantine ?telemetry () =
  {
    hw = Hashtbl.create 64;
    soft = Hashtbl.create 64;
    mono = Hashtbl.create 16;
    profiles = Hashtbl.create 16;
    store = Option.map (fun dir -> Store.open_ ?max_bytes ?quarantine ?telemetry ~dir ()) dir;
    persist = true;
    lock = Mutex.create ();
    counters =
      List.map
        (fun k -> (k, { hits = 0; misses = 0 }))
        [ kind_page; kind_softcore; kind_mono; kind_profile ];
  }

let readonly_view c = { c with persist = false }

let cache_store c = c.store

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let cache_size c =
  locked c (fun () ->
      Hashtbl.length c.hw + Hashtbl.length c.soft + Hashtbl.length c.mono
      + Hashtbl.length c.profiles)

let cache_stats c =
  locked c (fun () -> List.map (fun (k, ctr) -> (k, ctr.hits, ctr.misses)) c.counters)

let cache_dir c = Option.map Store.dir c.store

let counter c kind = List.assoc kind c.counters

(* A build job's cache traffic is recorded into the build's sink as
   engine instants and counters; profile lookups belong to no job and
   pass no [sink]. *)
let note_cache ?sink ~counter name attrs =
  match sink with
  | None -> ()
  | Some (tele, extra) ->
      Telemetry.incr (Telemetry.counter tele counter);
      Telemetry.instant tele ~cat:"engine" ~attrs:(attrs @ extra) name

(* Typed lookup in one kind partition: memory first, then the
   persistent store (promoting disk hits into memory). *)
let cache_find (type v) ?sink c (tbl : (Digest.t, v) Hashtbl.t) ~kind ~key ~job : v option =
  let hit source =
    note_cache ?sink ~counter:"engine.cache_hits" "cache-hit"
      [ ("job", job); ("kind", kind); ("source", source) ]
  in
  match locked c (fun () -> Hashtbl.find_opt tbl key) with
  | Some v ->
      locked c (fun () -> (counter c kind).hits <- (counter c kind).hits + 1);
      hit "memory";
      Some v
  | None -> (
      match Option.bind c.store (fun s -> (Store.find s ~kind ~key : v option)) with
      | Some v ->
          locked c (fun () ->
              Hashtbl.replace tbl key v;
              (counter c kind).hits <- (counter c kind).hits + 1);
          hit "disk";
          Some v
      | None ->
          locked c (fun () -> (counter c kind).misses <- (counter c kind).misses + 1);
          None)

let cache_put (type v) ?sink c (tbl : (Digest.t, v) Hashtbl.t) ~kind ~key (v : v) =
  locked c (fun () -> Hashtbl.replace tbl key v);
  match c.store with
  | Some s when c.persist ->
      Store.put s ~kind ~key v;
      note_cache ?sink ~counter:"engine.cache_stores" "cache-store" [ ("kind", kind); ("key", key) ]
  | Some _ | None -> ()

let find_profile c ~key = cache_find c c.profiles ~kind:kind_profile ~key ~job:"profile"
let put_profile c ~key doc = cache_put c c.profiles ~kind:kind_profile ~key doc

(* ---------- models ---------- *)

let makespan = Pld_engine.Makespan.lpt

let phase_list (t : Flow.phase_times) =
  [
    ("hls", t.Flow.hls);
    ("syn", t.Flow.syn);
    ("pnr", t.Flow.pnr);
    ("bitgen", t.Flow.bitgen);
    ("overhead", t.Flow.overhead);
  ]

(* ---------- keys ---------- *)

let op_key ~level ~seed ~page (i : Graph.instance) =
  Digest.of_parts
    [
      Op.source i.op;
      level_name level;
      string_of_int seed;
      string_of_int page;
      (match i.target with
      | Graph.Riscv -> "riscv"
      | Graph.Hw { page_hint } -> "hw" ^ Option.fold ~none:"" ~some:string_of_int page_hint);
    ]

(* The previous-P&R input and the seed race are part of the artifact's
   identity: a delta compile from a different starting point (or a
   different seed set) legitimately produces different bits, so they
   must not collide under one key. *)
let mono_key ~level ~seed ?(pnr_seeds = []) ?previous (g : Graph.t) =
  Digest.of_parts
    (Graph.source g :: level_name level :: string_of_int seed
    :: (match previous with
       | None -> "prev:none"
       | Some (p : Pld_pnr.Pnr.result) -> "prev:" ^ p.Pld_pnr.Pnr.bitstream.Pld_pnr.Bitgen.crc)
    :: (match pnr_seeds with
       | [] -> "seeds:-"
       | l -> "seeds:" ^ String.concat "," (List.map string_of_int l))
    :: List.map (fun (i : Graph.instance) -> Op.source i.op) g.instances)

(* ---------- job artifacts ---------- *)

type op_result = { o_name : string; o_compiled : compiled_operator; o_model : float; o_hit : bool }
type mono_result = { m_app : Flow.o3_app; m_model : float; m_hit : bool }

type art =
  | A_impl of Hls.impl
  | A_assign of (string * int) list
  | A_op of op_result
  | A_mono of mono_result

let art_model = function
  | A_op r -> r.o_model
  | A_mono r -> r.m_model
  | A_impl _ | A_assign _ -> 0.0

let art_phases = function
  | A_op { o_hit = true; _ } | A_mono { m_hit = true; _ } -> []
  | A_op { o_compiled = Hw_page h; _ } -> phase_list h.Flow.times
  (* softcore codegen is charged to the compile (hls) column, as the
     -O0 flow of Fig. 5 does *)
  | A_op { o_compiled = Soft_page s; _ } -> [ ("hls", s.Flow.riscv_seconds) ]
  | A_mono { m_app; _ } -> phase_list m_app.Flow.times3
  | A_impl _ | A_assign _ -> []

let art_hit = function
  | A_op r -> r.o_hit
  | A_mono r -> r.m_hit
  | A_impl _ | A_assign _ -> false

(* Report aggregates come from the artifacts the executor returned, in
   submission order — not from the telemetry sink, which is shared by
   concurrent builds and drops spans past its cap. Cache hits executed
   nothing, so only recompiled jobs contribute phases. *)
let phases_of_artifacts artifacts =
  let total phase =
    List.fold_left
      (fun acc (_, a) ->
        List.fold_left (fun acc (p, s) -> if p = phase then acc +. s else acc) acc (art_phases a))
      0.0 artifacts
  in
  {
    Flow.hls = total "hls";
    syn = total "syn";
    pnr = total "pnr";
    bitgen = total "bitgen";
    overhead = total "overhead";
  }

(* Per job kind, in first-appearance order: (kind, hits, misses). *)
let by_kind jobgraph artifacts =
  let finished =
    List.filter_map
      (fun n ->
        Option.map (fun a -> (Jobgraph.kind n, art_hit a)) (List.assoc_opt (Jobgraph.id n) artifacts))
      (Jobgraph.nodes jobgraph)
  in
  let kinds = List.fold_left (fun ks (k, _) -> if List.mem k ks then ks else ks @ [ k ]) [] finished in
  let count k hit = List.length (List.filter (( = ) (k, hit)) finished) in
  List.map (fun k -> (k, count k true, count k false)) kinds

(* Every job that compiled its artifact rather than finding it wrote it
   to the persistent store, unless the cache is a read-only view. *)
let stored cache artifacts =
  let compiled = function A_op _ | A_mono _ as a -> not (art_hit a) | A_impl _ | A_assign _ -> false in
  if cache.persist && Option.is_some cache.store then
    List.length (List.filter (fun (_, a) -> compiled a) artifacts)
  else 0

(* PicoRV32 + memory: a fixed overlay footprint (before the shared
   leaf interface is added); one size fits all, as Sec 7.5 notes -O0
   pages reserve worst-case memory. *)
let softcore_demand = { Pld_netlist.Netlist.luts = 900; ffs = 1300; brams = 6; dsps = 1 }

(* ---------- paged flows (-O0 / -O1) ---------- *)

let compile_paged ~cache ~workers ~jobs ~pace ~seed ~deadline ~telemetry ~attrs ~faults
    ~max_retries ~defective (fp : Fp.t) (g : Graph.t) ~level =
  (* A fault injector can make named jobs fail (transient tool crash);
     the check counts one attempt per call, so executor retries see the
     job eventually succeed. *)
  let inject job = match faults with Some f -> Pld_faults.Fault.job_check f ~job | None -> () in
  let sink = (telemetry, attrs) in
  let target_of (i : Graph.instance) = match level with O0 -> Graph.Riscv | _ -> i.target in
  let is_hw i = match target_of i with Graph.Hw _ -> true | Graph.Riscv -> false in
  let source_digest (i : Graph.instance) = Digest.of_string (Op.source i.op) in
  let hls_id d = "hls:" ^ d in
  (* One HLS job per distinct operator source among HW instances; its
     netlist feeds both page assignment and the page compile. *)
  let hls_ops =
    List.rev
      (List.fold_left
         (fun acc (i : Graph.instance) ->
           if is_hw i && not (List.mem_assoc (source_digest i) acc) then
             (source_digest i, i.op) :: acc
           else acc)
         [] g.instances)
  in
  let hls_nodes =
    List.map
      (fun (d, op) ->
        Jobgraph.node ~id:(hls_id d) ~kind:"hls" (fun _ ->
            inject (hls_id d);
            A_impl (Hls.compile op)))
      hls_ops
  in
  let assign_id = "assign" in
  let fetch_impl ctx d =
    match ctx.Jobgraph.fetch (hls_id d) with A_impl m -> m | _ -> assert false
  in
  let assign_node =
    Jobgraph.node ~id:assign_id ~kind:"assign"
      ~deps:(List.map (fun (d, _) -> hls_id d) hls_ops)
      (fun ctx ->
        inject assign_id;
        let demands =
          List.map
            (fun (i : Graph.instance) ->
              let res =
                if is_hw i then
                  Pld_netlist.Netlist.total_res (fetch_impl ctx (source_digest i)).Hls.netlist
                else softcore_demand
              in
              (i.inst_name, target_of i, res))
            g.instances
        in
        A_assign (Assign.assign ~defective fp demands))
  in
  let op_nodes =
    List.map
      (fun (i : Graph.instance) ->
        let hw = is_hw i in
        let kind = if hw then kind_page else kind_softcore in
        let job_id = "op:" ^ i.inst_name in
        Jobgraph.node ~id:job_id ~kind
          ~deps:(assign_id :: (if hw then [ hls_id (source_digest i) ] else []))
          ~model:art_model ~phases:art_phases
          (fun ctx ->
            inject job_id;
            let assignment =
              match ctx.Jobgraph.fetch assign_id with A_assign a -> a | _ -> assert false
            in
            let page = List.assoc i.inst_name assignment in
            let key = op_key ~level ~seed ~page i in
            if hw then
              match cache_find ~sink cache cache.hw ~kind ~key ~job:job_id with
              | Some h -> A_op { o_name = i.inst_name; o_compiled = Hw_page h; o_model = 0.0; o_hit = true }
              | None ->
                  let impl = fetch_impl ctx (source_digest i) in
                  let h = Flow.compile_o1_operator ~seed ~impl fp ~page ~inst:i.inst_name i.op in
                  cache_put ~sink cache cache.hw ~kind ~key h;
                  A_op
                    {
                      o_name = i.inst_name;
                      o_compiled = Hw_page h;
                      o_model = Flow.total_seconds h.Flow.times;
                      o_hit = false;
                    }
            else
              match cache_find ~sink cache cache.soft ~kind ~key ~job:job_id with
              | Some s -> A_op { o_name = i.inst_name; o_compiled = Soft_page s; o_model = 0.0; o_hit = true }
              | None ->
                  let s = Flow.compile_o0_operator ~page ~inst:i.inst_name i.op in
                  cache_put ~sink cache cache.soft ~kind ~key s;
                  A_op
                    {
                      o_name = i.inst_name;
                      o_compiled = Soft_page s;
                      o_model = s.Flow.riscv_seconds;
                      o_hit = false;
                    }))
      g.instances
  in
  let jobgraph = Jobgraph.make (hls_nodes @ (assign_node :: op_nodes)) in
  let result =
    Executor.run ~workers:jobs ~pace ~max_retries ~keep_going:(faults <> None) ?deadline
      ~telemetry ~attrs jobgraph
  in
  let quarantined = result.Executor.quarantined in
  let quarantine_error job =
    match List.assoc_opt job quarantined with Some e -> e | None -> "artifact missing"
  in
  let assignment =
    match List.assoc_opt assign_id result.Executor.artifacts with
    | Some (A_assign a) -> a
    | Some _ -> assert false
    | None ->
        raise
          (Build_error
             (Printf.sprintf "graph %s (%s): page assignment failed and has no fallback: %s"
                g.Graph.graph_name (level_name level) (quarantine_error assign_id)))
  in
  let fallbacks = ref [] in
  let ops =
    List.map
      (fun (i : Graph.instance) ->
        let job_id = "op:" ^ i.inst_name in
        match List.assoc_opt job_id result.Executor.artifacts with
        | Some (A_op r) -> r
        | Some _ -> assert false
        | None when is_hw i ->
            (* The page compile was quarantined after exhausting its
               retries. A softcore build fits every page and needs no
               backend tool, so drop this one operator a rung down the
               refinement ladder instead of failing the whole build. *)
            let page = List.assoc i.inst_name assignment in
            let s = Flow.compile_o0_operator ~page ~inst:i.inst_name i.op in
            fallbacks := i.inst_name :: !fallbacks;
            { o_name = i.inst_name; o_compiled = Soft_page s; o_model = s.Flow.riscv_seconds; o_hit = false }
        | None ->
            raise
              (Build_error
                 (Printf.sprintf "graph %s (%s): softcore build for %s failed (no lower rung): %s"
                    g.Graph.graph_name (level_name level) i.inst_name (quarantine_error job_id))))
      g.instances
  in
  let fallbacks = List.rev !fallbacks in
  let durations = List.map (fun r -> r.o_model) ops in
  let artifacts = result.Executor.artifacts in
  {
    graph = g;
    fp;
    level;
    assignment;
    operators = List.map (fun r -> (r.o_name, r.o_compiled)) ops;
    monolithic = None;
    report =
      {
        level;
        per_op_seconds = List.map (fun r -> (r.o_name, r.o_model)) ops;
        phases = phases_of_artifacts artifacts;
        serial_seconds = List.fold_left ( +. ) 0.0 durations;
        parallel_seconds = makespan ~workers durations;
        wall_seconds = result.Executor.wall_seconds;
        workers;
        jobs;
        cache_hits = List.length (List.filter (fun r -> r.o_hit) ops);
        recompiled = List.length (List.filter (fun r -> not r.o_hit) ops);
        by_kind = by_kind jobgraph artifacts;
        quarantined;
        fallbacks;
        stored = stored cache artifacts;
      };
  }

(* ---------- monolithic flows (-O3 / Vitis) ---------- *)

let compile_mono ~cache ~workers ~jobs ~pace ~seed ~deadline ~telemetry ~attrs ~faults
    ~max_retries ~previous ~pnr_seeds (fp : Fp.t) (g : Graph.t) ~level =
  let inject job = match faults with Some f -> Pld_faults.Fault.job_check f ~job | None -> () in
  let sink = (telemetry, attrs) in
  let key = mono_key ~level ~seed ~pnr_seeds ?previous g in
  let job_id = "mono:" ^ g.graph_name in
  let node =
    Jobgraph.node ~id:job_id ~kind:kind_mono ~model:art_model ~phases:art_phases (fun _ ->
        inject job_id;
        match cache_find ~sink cache cache.mono ~kind:kind_mono ~key ~job:job_id with
        | Some m -> A_mono { m_app = m; m_model = 0.0; m_hit = true }
        | None ->
            let m = Flow.compile_o3 ~seed ~vitis_baseline:(level = Vitis) ?previous ~pnr_seeds fp g in
            cache_put ~sink cache cache.mono ~kind:kind_mono ~key m;
            A_mono { m_app = m; m_model = Flow.total_seconds m.Flow.times3; m_hit = false })
  in
  let jobgraph = Jobgraph.make [ node ] in
  let result =
    Executor.run ~workers:jobs ~pace ~max_retries ~keep_going:(faults <> None) ?deadline
      ~telemetry ~attrs jobgraph
  in
  let r =
    match List.assoc_opt job_id result.Executor.artifacts with
    | Some (A_mono r) -> r
    | Some _ -> assert false
    | None ->
        raise
          (Build_error
             (Printf.sprintf "graph %s (%s): monolithic compile failed and has no fallback: %s"
                g.Graph.graph_name (level_name level)
                (match List.assoc_opt job_id result.Executor.quarantined with
                | Some e -> e
                | None -> "artifact missing")))
  in
  (* Incremental-P&R observability: what the delta path did (or why it
     bailed). Cache hits ran no P&R, so they count nothing. *)
  let bump ?by name = Telemetry.incr ?by (Telemetry.counter telemetry name) in
  (if not r.m_hit then
     match r.m_app.Flow.pnr3.Pld_pnr.Pnr.delta with
     | Some d ->
         bump ~by:d.Pld_pnr.Pnr.cells_moved "pnr.cells_moved";
         bump ~by:d.Pld_pnr.Pnr.nets_rerouted "pnr.nets_rerouted";
         bump (if d.Pld_pnr.Pnr.fallback = None then "pnr.delta_hits" else "pnr.delta_fallbacks")
     | None -> ());
  let artifacts = result.Executor.artifacts in
  {
    graph = g;
    fp;
    level;
    assignment = [];
    operators = [];
    monolithic = Some r.m_app;
    report =
      {
        level;
        per_op_seconds = [ (g.graph_name, r.m_model) ];
        phases = phases_of_artifacts artifacts;
        serial_seconds = r.m_model;
        parallel_seconds = r.m_model;
        wall_seconds = result.Executor.wall_seconds;
        workers;
        jobs;
        cache_hits = (if r.m_hit then 1 else 0);
        recompiled = (if r.m_hit then 0 else 1);
        by_kind = by_kind jobgraph artifacts;
        quarantined = result.Executor.quarantined;
        fallbacks = [];
        stored = stored cache artifacts;
      };
  }

(* ---------- entry point ---------- *)

let compile ?cache ?(workers = 22) ?(jobs = 1) ?(pace = 0.0) ?(seed = 7) ?deadline
    ?(telemetry = Telemetry.default) ?(attrs = []) ?faults ?(max_retries = 0)
    ?(defective = []) ?previous ?(pnr_seeds = []) (fp : Fp.t) (g : Graph.t) ~level =
  Validate.check_graph_exn g;
  ignore (makespan ~workers []);
  (* validate [workers] eagerly *)
  let cache = match cache with Some c -> c | None -> create_cache () in
  Telemetry.with_span telemetry ~cat:"build"
    ~attrs:([ ("graph", g.Graph.graph_name); ("level", level_name level) ] @ attrs)
    ("compile:" ^ g.Graph.graph_name)
  @@ fun () ->
  match level with
  | O3 | Vitis ->
      (* The previous app seeds delta P&R only when it is a monolithic
         build of the same level — a paged (or other-level) app has no
         comparable prior placement. *)
      let previous =
        match previous with
        | Some (p : app) when p.level = level -> Option.map (fun m -> m.Flow.pnr3) p.monolithic
        | Some _ | None -> None
      in
      compile_mono ~cache ~workers ~jobs ~pace ~seed ~deadline ~telemetry ~attrs ~faults
        ~max_retries ~previous ~pnr_seeds fp g ~level
  | O0 | O1 ->
      compile_paged ~cache ~workers ~jobs ~pace ~seed ~deadline ~telemetry ~attrs ~faults
        ~max_retries ~defective fp g ~level
