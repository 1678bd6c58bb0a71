(* The telemetry sink in isolation, and wired under the parallel
   executor: span nesting and exception safety, deterministic span
   coverage under a paced parallel run, histogram bucket edges, and
   the Chrome trace / metrics exporters round-tripping through the
   in-tree JSON parser. *)

module T = Pld_telemetry.Telemetry
module Json = Pld_telemetry.Json
module Jobgraph = Pld_engine.Jobgraph
module Executor = Pld_engine.Executor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let span_named tele name = List.find_opt (fun (s : T.span) -> s.T.name = name) (T.spans tele)

let get_span tele name =
  match span_named tele name with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" name

let end_us (s : T.span) = s.T.start_us +. Option.value ~default:0.0 s.T.dur_us

let contains ~(outer : T.span) ~(inner : T.span) =
  outer.T.start_us <= inner.T.start_us && end_us inner <= end_us outer

(* ---------- spans ---------- *)

let test_with_span_nesting () =
  let tele = T.create () in
  let r =
    T.with_span tele ~cat:"test" "outer" (fun () ->
        T.with_span tele ~cat:"test" "inner" (fun () -> 42))
  in
  check_int "thunk result" 42 r;
  let outer = get_span tele "outer" and inner = get_span tele "inner" in
  (* Inner closes first, so it records first; nesting is by time
     containment on the shared track. *)
  check_bool "inner contained in outer" true (contains ~outer ~inner);
  check_int "same track" outer.T.track inner.T.track;
  check_string "category" "test" outer.T.cat;
  check_bool "outer has a duration" true (outer.T.dur_us <> None)

let test_with_span_exception_safety () =
  let tele = T.create () in
  (match T.with_span tele ~cat:"test" "doomed" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure m -> check_string "exception propagates" "boom" m);
  let s = get_span tele "doomed" in
  check_bool "span closed despite raise" true (s.T.dur_us <> None);
  match List.assoc_opt "error" s.T.attrs with
  | Some msg -> check_bool "error attr mentions the exception" true
      (String.length msg > 0)
  | None -> Alcotest.fail "no error attribute on failed span"

let test_instant_has_no_duration () =
  let tele = T.create () in
  T.instant tele ~cat:"test" ~attrs:[ ("k", "v") ] "mark";
  let s = get_span tele "mark" in
  check_bool "instant" true (s.T.dur_us = None);
  check_string "attrs kept" "v" (List.assoc "k" s.T.attrs)

(* ---------- executor integration ---------- *)

let test_executor_parallel_spans () =
  (* Four independent paced jobs under four workers: every job must
     produce exactly one engine span nested inside the graph span, and
     the finished-jobs counter must agree — deterministically, whatever
     the interleaving, because with_span closes on the worker that ran
     the job. *)
  let jobs = List.init 4 (fun i -> Printf.sprintf "job%d" i) in
  let g =
    Jobgraph.make
      (List.map
         (fun id -> Jobgraph.node ~id ~kind:"t" ~model:(fun _ -> 0.02) (fun _ -> 0))
         jobs)
  in
  let tele = T.create () in
  let _ = Executor.run ~workers:4 ~pace:1.0 ~telemetry:tele g in
  let graph = get_span tele "graph" in
  check_string "graph span category" "engine" graph.T.cat;
  List.iter
    (fun id ->
      let s = get_span tele id in
      check_string "job span category" "engine" s.T.cat;
      check_bool (id ^ " inside graph span") true (contains ~outer:graph ~inner:s);
      check_string "kind attr" "t" (List.assoc "kind" s.T.attrs))
    jobs;
  check_int "finished counter" 4 (T.counter_value tele "engine.jobs_finished");
  check_int "no drops" 0 (T.dropped_spans tele)

(* ---------- metrics ---------- *)

let test_histogram_bucket_edges () =
  let tele = T.create () in
  let h = T.histogram tele ~buckets:[ 1.0; 2.0; 4.0 ] "lat" in
  List.iter (T.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 5.0 ];
  (* Upper edges are inclusive; the overflow bucket is +inf. *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "bucket counts"
    [ (1.0, 2); (2.0, 2); (4.0, 1); (Float.infinity, 1) ]
    (T.bucket_counts tele "lat");
  Alcotest.(check (list (float 0.0)))
    "samples in insertion order"
    [ 0.5; 1.0; 1.5; 2.0; 3.0; 5.0 ]
    (T.samples tele "lat");
  check_int "unknown counter reads 0" 0 (T.counter_value tele "nope")

let test_counter_and_gauge () =
  let tele = T.create () in
  let c = T.counter tele "c" in
  T.incr c;
  T.incr ~by:41 c;
  check_int "counter sums" 42 (T.counter_value tele "c");
  let g = T.gauge tele "g" in
  T.max_gauge g 3.0;
  T.max_gauge g 1.0;
  Alcotest.(check (option (float 0.0))) "max_gauge keeps high-water" (Some 3.0)
    (T.gauge_value tele "g");
  T.set_gauge g 0.5;
  Alcotest.(check (option (float 0.0))) "set_gauge overwrites" (Some 0.5)
    (T.gauge_value tele "g")

(* ---------- exporters ---------- *)

let populated_sink () =
  let tele = T.create () in
  T.with_span tele ~cat:"engine" ~attrs:[ ("kind", "page") ] "op:a" (fun () -> ());
  T.instant tele ~cat:"loader" "load-retry";
  let mt = T.modeled_track tele ~cat:"flow" ~name:"worker 0" in
  T.modeled_span tele mt "hls" 12.5;
  T.incr ~by:3 (T.counter tele "engine.cache_hits");
  T.observe (T.histogram tele ~buckets:[ 1.0; 10.0 ] "noc.hop_latency") 4.0;
  tele

let expect_member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S in %s" name (Json.to_string j)

let test_chrome_json_roundtrip () =
  let tele = populated_sink () in
  (* Serialize and parse back with the independent in-tree parser: the
     export is valid JSON, not just a plausible string. *)
  let doc = Json.of_string (Json.to_string (T.to_chrome_json tele)) in
  let events =
    match expect_member "traceEvents" doc with
    | Json.List es -> es
    | j -> Alcotest.failf "traceEvents not a list: %s" (Json.to_string j)
  in
  check_bool "has events" true (List.length events > 0);
  let ph e = match expect_member "ph" e with Json.String s -> s | _ -> "?" in
  List.iter
    (fun e ->
      List.iter (fun f -> ignore (expect_member f e)) [ "name"; "ph"; "pid"; "tid" ];
      match ph e with
      | "X" -> ignore (expect_member "dur" e)
      | "i" ->
          check_bool "instant scope" true (Json.member "s" e = Some (Json.String "t"))
      | "M" -> ignore (expect_member "args" e)
      | other -> Alcotest.failf "unexpected phase %S" other)
    events;
  (* The wall and modeled clocks must land in different Perfetto
     processes, each introduced by a process_name metadata record. *)
  let process_names =
    List.filter_map
      (fun e ->
        if ph e = "M" && expect_member "name" e = Json.String "process_name" then
          Json.member "name" (expect_member "args" e)
        else None)
      events
  in
  check_bool "engine process named" true
    (List.mem (Json.String "engine") process_names);
  check_bool "modeled clock is its own process" true
    (List.mem (Json.String "flow (modeled)") process_names)

let test_metrics_json_roundtrip () =
  let tele = populated_sink () in
  let doc = Json.of_string (Json.to_string (T.to_metrics_json tele)) in
  let counters = expect_member "counters" doc in
  (match Json.member "engine.cache_hits" counters with
  | Some (Json.Int 3) -> ()
  | j -> Alcotest.failf "cache_hits counter: %s"
      (match j with Some j -> Json.to_string j | None -> "missing"));
  let hist = expect_member "noc.hop_latency" (expect_member "histograms" doc) in
  (match Json.member "count" hist with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "histogram count");
  ignore (expect_member "gauges" doc);
  ignore (expect_member "spans" doc)

let test_trace_export_smoke () =
  (* write_chrome end to end: the on-disk file parses and names at
     least the layers recorded into the sink. *)
  let tele = populated_sink () in
  let file = Filename.temp_file "pld-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      T.write_chrome tele ~file;
      let doc = Json.of_string (In_channel.with_open_bin file In_channel.input_all) in
      let cats =
        match expect_member "traceEvents" doc with
        | Json.List es ->
            List.sort_uniq compare
              (List.filter_map
                 (fun e ->
                   match Json.member "cat" e with Some (Json.String c) -> Some c | _ -> None)
                 es)
        | _ -> []
      in
      List.iter
        (fun c -> check_bool ("layer " ^ c ^ " exported") true (List.mem c cats))
        [ "engine"; "loader"; "flow" ])

(* ---------- the JSON parser's error and escape paths ---------- *)

let rejects label src =
  match Json.of_string src with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Parse_error on %S" label src

let parses_string label src expect =
  match Json.of_string src with
  | Json.String s -> check_string label expect s
  | _ -> Alcotest.failf "%s: %S did not parse to a string" label src

let test_json_rejects_malformed () =
  rejects "unterminated string" "\"abc";
  rejects "unterminated escape" "\"abc\\";
  rejects "bad escape letter" "\"a\\x\"";
  rejects "truncated \\u" "\"\\u12\"";
  rejects "bad hex digit" "\"\\u12G4\"";
  (* [int_of_string "0x12_4"] would accept these; strict hex must not *)
  rejects "underscore in \\u" "\"\\u12_4\"";
  rejects "sign in \\u" "\"\\u-123\"";
  rejects "trailing garbage" "{} x";
  rejects "bare word" "nul";
  rejects "unclosed object" "{\"a\": 1";
  rejects "unclosed array" "[1, 2";
  rejects "lone comma" "[1,]";
  rejects "missing colon" "{\"a\" 1}";
  rejects "empty input" "";
  rejects "bad number" "[1.2.3]"

let test_json_escapes () =
  parses_string "simple escapes" "\"a\\n\\t\\\\\\\"b\\/\"" "a\n\t\\\"b/";
  parses_string "bmp \\u escape" "\"\\u0041\\u00e9\"" "A\xc3\xa9";
  (* An astral code point arrives as a surrogate pair and must decode
     to one 4-byte UTF-8 sequence. *)
  parses_string "surrogate pair" "\"\\ud83d\\ude00\"" "\xf0\x9f\x98\x80";
  (* Lone surrogates are not code points: U+FFFD, never invalid UTF-8. *)
  parses_string "lone high surrogate" "\"\\ud83d!\"" "\xef\xbf\xbd!";
  parses_string "lone low surrogate" "\"\\ude00!\"" "\xef\xbf\xbd!";
  parses_string "high surrogate before a non-surrogate escape" "\"\\ud83d\\u0041\""
    "\xef\xbf\xbdA";
  (* Escaped strings survive a write/parse round-trip. *)
  let tricky = Json.String "quote\" slash\\ newline\n tab\t emoji\xf0\x9f\x98\x80" in
  check_bool "escape round-trip" true (Json.of_string (Json.to_string tricky) = tricky)

let test_json_deep_nesting () =
  let depth = 10_000 in
  let src =
    String.concat "" [ String.make depth '['; "42"; String.make depth ']' ]
  in
  match Json.of_string src with
  | exception Stack_overflow -> Alcotest.fail "parser overflowed on deep nesting"
  | v ->
      let rec unwrap n = function
        | Json.List [ inner ] -> unwrap (n + 1) inner
        | Json.Float f when f = 42.0 -> check_int "nesting depth preserved" depth n
        | Json.Int 42 -> check_int "nesting depth preserved" depth n
        | _ -> Alcotest.fail "unexpected shape after deep parse"
      in
      unwrap 0 v

let test_json_pretty_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\nb");
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null; Json.Bool true ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.Obj [ ("k", Json.List [ Json.Obj [ ("x", Json.Int 7) ] ]) ]);
      ]
  in
  let p = Json.pretty doc in
  check_bool "pretty output is indented" true (String.contains p '\n');
  check_bool "pretty parses back to the same document" true (Json.of_string p = doc)

(* ---------- quantile estimators ---------- *)

module Quantile = Pld_telemetry.Quantile

let check_float = Alcotest.(check (float 1e-9))

(* Samples observed into a histogram whose edges are the sample values
   themselves: every bucket holds whole samples, so the estimate at a
   rank is that bucket's top edge — the nearest-rank quantile of the
   raw samples, whatever order they were observed in. With no samples
   the histogram keeps the default edges and stays empty. *)
let quantile_of_samples samples q =
  let tele = T.create () in
  let h =
    match List.sort_uniq compare samples with
    | [] -> T.histogram tele "samples"
    | edges -> T.histogram tele ~buckets:edges "samples"
  in
  List.iter (T.observe h) samples;
  Quantile.of_buckets (T.bucket_counts tele "samples") q

let test_quantile_of_samples () =
  let samples = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50 nearest-rank" 50.0 (quantile_of_samples samples 0.50);
  check_float "p95" 95.0 (quantile_of_samples samples 0.95);
  check_float "p99" 99.0 (quantile_of_samples samples 0.99);
  check_float "p100 is the max" 100.0 (quantile_of_samples samples 1.0);
  check_float "empty reads 0" 0.0 (quantile_of_samples [] 0.5);
  check_float "unsorted input" 3.0 (quantile_of_samples [ 3.0; 1.0; 2.0 ] 1.0)

let test_quantile_of_buckets () =
  (* 40 observations: 10 in (0,1], 10 in (1,2], 20 in (2,4]. The median
     rank (20) lands exactly at the top of the second bucket, so linear
     interpolation must return its upper edge. *)
  let buckets = [ (1.0, 10); (2.0, 10); (4.0, 20); (Float.infinity, 0) ] in
  check_float "p50 at a bucket boundary" 2.0 (Quantile.of_buckets buckets 0.50);
  (* Rank 30 sits halfway through the 20-count (2,4] bucket. *)
  check_float "p75 interpolates inside a bucket" 3.0 (Quantile.of_buckets buckets 0.75);
  (* Rank 10 tops the first bucket, whose lower bound is 0. *)
  check_float "p25 in the first bucket" 1.0 (Quantile.of_buckets buckets 0.25);
  check_float "overflow rank clamps to the last finite edge" 1.0
    (Quantile.of_buckets [ (1.0, 0); (Float.infinity, 5) ] 0.99);
  check_float "all-empty buckets read 0" 0.0
    (Quantile.of_buckets [ (1.0, 0); (Float.infinity, 0) ] 0.5);
  (* The pairing helper reproduces bucket_counts' shape. *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets_of_counts pairs edges with counts"
    [ (1.0, 2); (2.0, 0); (Float.infinity, 1) ]
    (Quantile.buckets_of_counts ~edges:[| 1.0; 2.0 |] ~counts:[| 2; 0; 1 |])

(* The estimator the daemon's per-tenant status derives p50/p95/p99
   from: the registry's own bucket counts must round-trip through it
   with bucket-resolution accuracy. *)
let test_quantile_from_registry_histogram () =
  let tele = T.create () in
  let h = T.histogram tele ~buckets:[ 0.01; 0.1; 1.0 ] "lat" in
  List.iter (T.observe h) [ 0.005; 0.05; 0.05; 0.5 ];
  let buckets = T.bucket_counts tele "lat" in
  let p50 = Quantile.of_buckets buckets 0.50 in
  check_bool "p50 lands in the right bucket" true (p50 > 0.01 && p50 <= 0.1)

(* ---------- structured logging ---------- *)

module Log = Pld_telemetry.Log

let contains_sub ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_log_levels_and_ring () =
  let lg = Log.create ~level:Log.Warn ~ring_limit:3 () in
  Log.debug lg ~sub:"t" "dropped";
  Log.info lg ~sub:"t" "dropped too";
  List.iter (fun i -> Log.warn lg ~sub:"t" (Printf.sprintf "w%d" i)) [ 1; 2; 3; 4; 5 ];
  let evs = Log.events lg in
  check_int "ring bounded" 3 (List.length evs);
  Alcotest.(check (list string))
    "oldest evicted first, order kept" [ "w3"; "w4"; "w5" ]
    (List.map (fun e -> e.Log.ev_msg) evs);
  Log.set_level lg Log.Debug;
  Log.debug lg ~sub:"t" "now kept";
  check_int "level change takes effect" 3 (List.length (Log.events lg));
  check_bool "debug now in ring" true
    (List.exists (fun e -> e.Log.ev_msg = "now kept") (Log.events lg))

let test_log_event_json_roundtrip () =
  let lg = Log.create ~level:Log.Debug () in
  Log.error lg ~trace:"00000000deadbeef"
    ~fields:[ ("tenant", "alice"); ("graph", "svc-1x2") ]
    ~sub:"service.watchdog" "build wedged";
  let e = List.hd (Log.events lg) in
  (* The JSONL line a --log-json consumer reads must parse back to the
     same event through the in-tree parser. *)
  let j = Json.of_string (Json.to_string (Log.event_json e)) in
  (match Log.event_of_json j with
  | Ok e' ->
      check_string "msg" e.Log.ev_msg e'.Log.ev_msg;
      check_string "sub" e.Log.ev_sub e'.Log.ev_sub;
      Alcotest.(check (option string)) "trace" e.Log.ev_trace e'.Log.ev_trace;
      Alcotest.(check (list (pair string string))) "fields" e.Log.ev_fields e'.Log.ev_fields;
      check_bool "level" true (e.Log.ev_level = e'.Log.ev_level)
  | Error msg -> Alcotest.failf "event did not round-trip: %s" msg);
  let line = Log.render e in
  List.iter
    (fun part -> check_bool (part ^ " rendered") true (contains_sub ~needle:part line))
    [ "ERROR"; "service.watchdog"; "build wedged"; "tenant=alice"; "trace=00000000deadbeef" ]

let test_log_sinks () =
  let lg = Log.create () in
  let texts = ref [] and jsons = ref [] in
  Log.set_text_sink lg (Some (fun l -> texts := l :: !texts));
  Log.set_json_sink lg (Some (fun l -> jsons := l :: !jsons));
  Log.info lg ~sub:"t" "hello";
  Log.debug lg ~sub:"t" "below level";
  check_int "text sink saw one line" 1 (List.length !texts);
  check_int "json sink saw one line" 1 (List.length !jsons);
  (match Json.of_string (List.hd !jsons) with
  | Json.Obj _ as j ->
      check_bool "json line carries the message" true
        (Json.member "msg" j = Some (Json.String "hello"))
  | _ -> Alcotest.fail "json sink line is not an object");
  Log.set_text_sink lg None;
  Log.info lg ~sub:"t" "after removal";
  check_int "removed sink sees nothing" 1 (List.length !texts)

let test_flight_recorder_dump () =
  let lg = Log.create () in
  let tele = T.create () in
  T.incr ~by:9 (T.counter tele "service.watchdog_kills");
  let file = Filename.temp_file "pld-flight" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Log.arm_flight lg ~telemetry:tele ~file ();
      Log.info lg ~sub:"service" "context line";
      (* An error-level event trips the dump without anyone calling
         trip_flight — the watchdog-kill path. *)
      Log.error lg ~trace:"feedc0defeedc0de" ~sub:"service.watchdog" "build wedged";
      let doc = Json.of_string (In_channel.with_open_bin file In_channel.input_all) in
      (match Json.member "reason" doc with
      | Some (Json.String r) ->
          check_bool "reason names the tripping event" true
            (contains_sub ~needle:"build wedged" r)
      | _ -> Alcotest.fail "flight dump has no reason");
      (match Json.member "events" doc with
      | Some (Json.List evs) ->
          check_int "both ring events dumped" 2 (List.length evs);
          let parsed = List.map Log.event_of_json evs in
          check_bool "dumped events parse back" true (List.for_all Result.is_ok parsed)
      | _ -> Alcotest.fail "flight dump has no events");
      (match Json.member "metrics" doc with
      | Some m ->
          check_bool "metrics snapshot included" true
            (match Json.member "counters" m with
            | Some (Json.Obj cs) -> List.mem_assoc "service.watchdog_kills" cs
            | _ -> false)
      | None -> Alcotest.fail "flight dump has no metrics");
      Log.disarm_flight lg;
      Sys.remove file;
      Log.error lg ~sub:"t" "after disarm";
      check_bool "disarmed recorder writes nothing" false (Sys.file_exists file))

let test_mint_trace_id () =
  let ids = List.init 64 (fun _ -> Log.mint_trace_id ()) in
  List.iter
    (fun id ->
      check_int "16 hex digits" 16 (String.length id);
      String.iter
        (fun c ->
          check_bool "hex alphabet" true
            (match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false))
        id)
    ids;
  check_int "distinct within a process" 64 (List.length (List.sort_uniq compare ids))

(* ---------- prometheus exposition ---------- *)

let test_prometheus_exposition () =
  let tele = populated_sink () in
  let text = T.to_prometheus tele in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  check_bool "counter TYPE line" true (has "# TYPE pld_engine_cache_hits counter");
  check_bool "counter value, dots sanitized" true (has "pld_engine_cache_hits 3");
  check_bool "histogram TYPE line" true (has "# TYPE pld_noc_hop_latency histogram");
  check_bool "cumulative finite bucket" true (has "pld_noc_hop_latency_bucket{le=\"10\"} 1");
  check_bool "+Inf bucket equals count" true (has "pld_noc_hop_latency_bucket{le=\"+Inf\"} 1");
  check_bool "histogram sum" true (has "pld_noc_hop_latency_sum 4");
  check_bool "histogram count" true (has "pld_noc_hop_latency_count 1");
  check_bool "span gauges" true (has "# TYPE pld_spans_recorded gauge");
  (* Satellite: HELP/TYPE for every metric — gauges and histograms
     included, with the original dotted name preserved in HELP. *)
  check_bool "counter HELP line" true
    (has "# HELP pld_engine_cache_hits pld metric engine.cache_hits (counter)");
  check_bool "histogram HELP line" true
    (has "# HELP pld_noc_hop_latency pld metric noc.hop_latency (histogram)");
  check_bool "span gauge HELP" true
    (has "# HELP pld_spans_recorded telemetry spans captured in the ring");
  let gtele = T.create () in
  T.set_gauge (T.gauge gtele "fabric.page.peak") 7.0;
  ignore (T.gauge gtele "fabric.unset");
  let glines = String.split_on_char '\n' (T.to_prometheus gtele) in
  check_bool "set gauge HELP line" true
    (List.mem "# HELP pld_fabric_page_peak pld metric fabric.page.peak (gauge)" glines);
  check_bool "set gauge TYPE line" true
    (List.mem "# TYPE pld_fabric_page_peak gauge" glines);
  check_bool "unset gauge still announced" true
    (List.mem "# TYPE pld_fabric_unset gauge" glines);
  check_bool "unset gauge has no sample" false
    (List.exists (fun l -> l = "pld_fabric_unset" || String.length l > 16 && String.sub l 0 16 = "pld_fabric_unset") glines);
  (* Every non-comment line is "name value" or "name{labels} value" over
     the sanitized alphabet — what a Prometheus scraper requires. *)
  List.iter
    (fun l ->
      if l <> "" && not (String.length l >= 1 && l.[0] = '#') then
        Scanf.sscanf l "%s %s%!" (fun name value ->
            check_bool (l ^ ": name alphabet") true
              (String.for_all
                 (function
                   | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '{' | '}' | '"' | '='
                   | '.' | '+' | '-' ->
                       true
                   | _ -> false)
                 name);
            check_bool (l ^ ": has a value") true (String.length value > 0)))
    lines

let test_prometheus_label_escaping () =
  Alcotest.(check string)
    "backslash, quote and newline get escapes" "a\\\\b\\\"c\\nd"
    (T.prometheus_escape_label "a\\b\"c\nd");
  Alcotest.(check string) "plain values pass through" "le-10.5" (T.prometheus_escape_label "le-10.5")

let suite =
  [
    Alcotest.test_case "with_span nests by containment" `Quick test_with_span_nesting;
    Alcotest.test_case "with_span closes on raise" `Quick test_with_span_exception_safety;
    Alcotest.test_case "instants have no duration" `Quick test_instant_has_no_duration;
    Alcotest.test_case "parallel executor span coverage" `Quick test_executor_parallel_spans;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
    Alcotest.test_case "counters and gauges" `Quick test_counter_and_gauge;
    Alcotest.test_case "chrome export round-trips" `Quick test_chrome_json_roundtrip;
    Alcotest.test_case "metrics export round-trips" `Quick test_metrics_json_roundtrip;
    Alcotest.test_case "trace file export smoke" `Quick test_trace_export_smoke;
    Alcotest.test_case "json parser rejects malformed input" `Quick test_json_rejects_malformed;
    Alcotest.test_case "json string escapes" `Quick test_json_escapes;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    Alcotest.test_case "json pretty round-trip" `Quick test_json_pretty_roundtrip;
    Alcotest.test_case "quantile of samples (nearest rank)" `Quick test_quantile_of_samples;
    Alcotest.test_case "quantile of bucket counts" `Quick test_quantile_of_buckets;
    Alcotest.test_case "quantile from registry histogram" `Quick
      test_quantile_from_registry_histogram;
    Alcotest.test_case "log levels and bounded ring" `Quick test_log_levels_and_ring;
    Alcotest.test_case "log event JSONL round-trip" `Quick test_log_event_json_roundtrip;
    Alcotest.test_case "log sinks" `Quick test_log_sinks;
    Alcotest.test_case "flight recorder dumps ring and metrics" `Quick test_flight_recorder_dump;
    Alcotest.test_case "trace ids are unique hex" `Quick test_mint_trace_id;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
    Alcotest.test_case "prometheus label escaping" `Quick test_prometheus_label_escaping;
  ]
