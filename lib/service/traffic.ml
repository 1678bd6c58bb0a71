open Pld_ir
module Rng = Pld_util.Rng
module Json = Pld_telemetry.Json

type options = {
  sessions : int;
  tenants : int;
  zipf : float;
  pool : int;
  max_chain : int;
  level : Pld_core.Build.level;
  seed : int;
}

let default_options =
  {
    sessions = 200;
    tenants = 4;
    zipf = 1.1;
    pool = 24;
    max_chain = 3;
    level = Pld_core.Build.O1;
    seed = 11;
  }

(* Every pool operator consumes and produces exactly [frame_tokens]
   words per body execution. The linked runner executes each body once
   per frame, so rate-uniformity is what keeps arbitrary chains
   deadlock-free; cost still varies with [i] — deeper multiply-add
   chains are genuinely more work for HLS and P&R — and the coefficient
   keeps every source distinct in the cache. *)
let frame_tokens = 32

let pool_op i =
  let i32 = Dtype.SInt 32 in
  let coeff = Expr.int i32 (i + 3) in
  let rec deepen e k =
    if k = 0 then e else deepen Expr.(Bin (Add, Bin (Mul, e, coeff), Var "x")) (k - 1)
  in
  Op.make
    ~name:(Printf.sprintf "svc%d" i)
    ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
    ~locals:[ Op.scalar "x" i32; Op.scalar "y" i32 ]
    [
      Op.For
        {
          var = "k";
          lo = 0;
          hi = frame_tokens;
          pipeline = true;
          body =
            [
              Op.Read (Op.LVar "x", "in");
              (* Depth caps at 3 multiply-adds: deeper chains outgrow
                 the largest page's DSP budget and would never fit. *)
              Op.Assign (Op.LVar "y", deepen Expr.(Var "x") (1 + (i mod 3)));
              Op.Write ("out", Expr.(Bin (Add, Var "y", Var "x")));
            ];
        };
    ]

let chain_tokens _chain = frame_tokens

let chain_workload chain =
  let n = chain_tokens chain in
  [ ("cin", List.init n (fun i -> Value.of_int Dtype.word (i + 1))) ]

let chain_name chain = "svc-" ^ String.concat "x" (List.map string_of_int chain)

let chain_of_name name =
  match String.length name > 4 && String.sub name 0 4 = "svc-" with
  | false -> Error (Printf.sprintf "not a traffic chain name: %S" name)
  | true -> (
      let rest = String.sub name 4 (String.length name - 4) in
      let parts = String.split_on_char 'x' rest in
      let idx = List.map int_of_string_opt parts in
      match List.for_all Option.is_some idx with
      | true -> Ok (List.map Option.get idx)
      | false -> Error (Printf.sprintf "malformed traffic chain name: %S" name))

let chain_graph chain =
  let k = List.length chain in
  let chan i = if i = 0 then "cin" else if i = k then "cout" else Printf.sprintf "c%d" i in
  Graph.make ~name:(chain_name chain)
    ~channels:(List.init (k + 1) (fun i -> Graph.channel (chan i)))
    ~instances:
      (List.mapi
         (fun i idx ->
           Graph.instance
             ~name:(Printf.sprintf "s%d" i)
             (pool_op idx)
             [ ("in", chan i); ("out", chan (i + 1)) ])
         chain)
    ~inputs:[ "cin" ] ~outputs:[ "cout" ]

let bench_of_name name =
  match chain_of_name name with
  | Ok chain ->
      (* Chains are rate-1, so the ramp workload is always valid and
         the structural check is vacuous. *)
      Ok
        {
          Pld_rosetta.Suite.name;
          paper_name = "service traffic chain";
          graph = (fun _ -> chain_graph chain);
          workload = (fun () -> chain_workload chain);
          check = (fun ~inputs:_ _ -> true);
        }
  | Error _ -> (
      match Pld_rosetta.Suite.find name with
      | b -> Ok b
      | exception Not_found ->
          Error
            (Printf.sprintf "unknown bench %S (rosetta: %s; or a svc-I[xJ...] traffic chain)" name
               (String.concat ", " Pld_rosetta.Suite.names)))

let zipf_sample rng ~pool ~s =
  let w = Array.init pool (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let u = Rng.float rng total in
  let rec walk i acc =
    if i >= pool - 1 then pool - 1
    else
      let acc = acc +. w.(i) in
      if u < acc then i else walk (i + 1) acc
  in
  walk 0 0.0

let sample_chain rng (o : options) =
  let len = 1 + Rng.int rng (max 1 o.max_chain) in
  List.init len (fun _ -> zipf_sample rng ~pool:(max 1 o.pool) ~s:o.zipf)

type summary = {
  sm_options : options;
  sm_wall_seconds : float;
  sm_completed : int;
  sm_failed : int;
  sm_backpressure : int;
  sm_deduped : int;
  sm_cross_hits : int;
  sm_distinct_graphs : int;
  sm_cache_hits : int;
  sm_recompiled : int;
  sm_store_writes : int;
  sm_p50 : float;
  sm_p95 : float;
  sm_p99 : float;
  sm_mean : float;
  sm_max : float;
  sm_per_tenant : (string * int) list;
  sm_cross_rate : float;
}

let run ~service (o : options) =
  let rng = Rng.create o.seed in
  let t0 = Unix.gettimeofday () in
  let outstanding = Queue.create () in
  let distinct = Hashtbl.create 64 in
  let per_tenant = Hashtbl.create 8 in
  let completed = ref 0
  and failed = ref 0
  and backpressure = ref 0
  and deduped = ref 0
  and cross = ref 0
  and hits = ref 0
  and recompiled = ref 0
  and writes = ref 0
  and latencies = ref [] in
  let record = function
    | Error _ -> incr failed
    | Ok (oc : Service.outcome) ->
        incr completed;
        if oc.Service.o_deduped then incr deduped;
        if oc.Service.o_cross_tenant then incr cross;
        hits := !hits + oc.Service.o_cache_hits;
        recompiled := !recompiled + oc.Service.o_recompiled;
        writes := !writes + oc.Service.o_store_writes;
        latencies := oc.Service.o_latency_seconds :: !latencies;
        let tn = oc.Service.o_tenant in
        Hashtbl.replace per_tenant tn (1 + Option.value ~default:0 (Hashtbl.find_opt per_tenant tn))
  in
  for s = 0 to o.sessions - 1 do
    let tenant = Printf.sprintf "t%d" (s mod max 1 o.tenants) in
    let priority = Rng.int rng 3 in
    let chain = sample_chain rng o in
    Hashtbl.replace distinct chain ();
    let g = chain_graph chain in
    let rec admit () =
      match Service.submit service ~tenant ~priority ~level:o.level g with
      | Ok ticket -> Queue.add ticket outstanding
      | Error _ ->
          (* Backpressure: drain one outstanding build, then retry. *)
          incr backpressure;
          if Queue.is_empty outstanding then Unix.sleepf 0.001
          else record (Service.await service (Queue.pop outstanding));
          admit ()
    in
    admit ()
  done;
  Queue.iter (fun ticket -> record (Service.await service ticket)) outstanding;
  let wall = Unix.gettimeofday () -. t0 in
  let lats = List.rev !latencies in
  let n = max 1 (List.length lats) in
  {
    sm_options = o;
    sm_wall_seconds = wall;
    sm_completed = !completed;
    sm_failed = !failed;
    sm_backpressure = !backpressure;
    sm_deduped = !deduped;
    sm_cross_hits = !cross;
    sm_distinct_graphs = Hashtbl.length distinct;
    sm_cache_hits = !hits;
    sm_recompiled = !recompiled;
    sm_store_writes = !writes;
    sm_p50 = Service.percentile lats 0.50;
    sm_p95 = Service.percentile lats 0.95;
    sm_p99 = Service.percentile lats 0.99;
    sm_mean = List.fold_left ( +. ) 0.0 lats /. float_of_int n;
    sm_max = List.fold_left Float.max 0.0 lats;
    sm_per_tenant =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_tenant []);
    sm_cross_rate = (if !completed = 0 then 0.0 else float_of_int !cross /. float_of_int !completed);
  }

let summary_json (s : summary) =
  Json.Obj
    [
      ("sessions", Json.Int s.sm_options.sessions);
      ("tenants", Json.Int s.sm_options.tenants);
      ("zipf", Json.Float s.sm_options.zipf);
      ("pool", Json.Int s.sm_options.pool);
      ("max_chain", Json.Int s.sm_options.max_chain);
      ("level", Json.String (Pld_core.Build.level_name s.sm_options.level));
      ("seed", Json.Int s.sm_options.seed);
      ("wall_seconds", Json.Float s.sm_wall_seconds);
      ("completed", Json.Int s.sm_completed);
      ("failed", Json.Int s.sm_failed);
      ("backpressure_retries", Json.Int s.sm_backpressure);
      ("deduped", Json.Int s.sm_deduped);
      ("cross_tenant_hits", Json.Int s.sm_cross_hits);
      ("cross_tenant_hit_rate", Json.Float s.sm_cross_rate);
      ("distinct_graphs", Json.Int s.sm_distinct_graphs);
      ("cache_hits", Json.Int s.sm_cache_hits);
      ("recompiled", Json.Int s.sm_recompiled);
      ("store_writes", Json.Int s.sm_store_writes);
      ("latency_p50_s", Json.Float s.sm_p50);
      ("latency_p95_s", Json.Float s.sm_p95);
      ("latency_p99_s", Json.Float s.sm_p99);
      ("latency_mean_s", Json.Float s.sm_mean);
      ("latency_max_s", Json.Float s.sm_max);
      ( "per_tenant_jobs",
        Json.Obj (List.map (fun (t, n) -> (t, Json.Int n)) s.sm_per_tenant) );
    ]

let render (s : summary) =
  [
    Printf.sprintf "%d sessions, %d tenants, zipf %.2f over %d ops (seed %d): %.2f s wall"
      s.sm_options.sessions s.sm_options.tenants s.sm_options.zipf s.sm_options.pool
      s.sm_options.seed s.sm_wall_seconds;
    Printf.sprintf "completed %d (failed %d, backpressure retries %d), %d distinct graphs"
      s.sm_completed s.sm_failed s.sm_backpressure s.sm_distinct_graphs;
    Printf.sprintf "shared-store economics: %d dedup, %d cross-tenant hits (rate %.3f), %d op hits, %d recompiles, %d store writes"
      s.sm_deduped s.sm_cross_hits s.sm_cross_rate s.sm_cache_hits s.sm_recompiled
      s.sm_store_writes;
    Printf.sprintf "latency s: p50 %.4f  p95 %.4f  p99 %.4f  mean %.4f  max %.4f" s.sm_p50
      s.sm_p95 s.sm_p99 s.sm_mean s.sm_max;
    "per-tenant jobs: "
    ^ String.concat "  " (List.map (fun (t, n) -> Printf.sprintf "%s=%d" t n) s.sm_per_tenant);
  ]
