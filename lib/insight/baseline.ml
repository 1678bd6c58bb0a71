module Json = Pld_telemetry.Json
module Table = Pld_util.Table

type entry = { bench : string; level : string; exact : (string * float) list }
type snapshot = { version : int; suite : string; created : string; entries : entry list }

let current_version = 2

(* Drift beyond float formatting is a behaviour change. *)
let exact_rel = 1e-6

type status = Ok | Regression | Improvement | Missing | New

let status_name = function
  | Ok -> "ok"
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Missing -> "missing"
  | New -> "new"

type finding = {
  f_bench : string;
  f_level : string;
  f_metric : string;
  f_base : float;
  f_cur : float;
  f_band : float;
  f_status : status;
}

type verdict = {
  findings : finding list;
  regressions : finding list;
  improvements : finding list;
  ok : bool;
}

let higher_is_better = function
  | "fmax_mhz" | "cache_hits" | "svc_completed" -> true
  (* Incremental tier: losing the delta path is the regression. *)
  | "inc_delta_hits" | "inc_cells_kept" -> true
  | _ -> false

(* ---------- comparison ---------- *)

(* Every key of [base] with its value in [cur] if any, then the keys
   only [cur] has. *)
let pair base cur =
  List.map (fun (k, b) -> (k, Some b, List.assoc_opt k cur)) base
  @ List.filter_map
      (fun (k, c) -> if List.mem_assoc k base then None else Some (k, None, Some c))
      cur

let finding ~bench ~level metric base cur =
  let f_band, f_status =
    match (base, cur) with
    | Some b, Some c ->
        let band = Float.max 1e-9 (exact_rel *. Float.abs b) in
        ( band,
          if Float.abs (c -. b) <= band then Ok
          else if higher_is_better metric = (c > b) then Improvement
          else Regression )
    | Some _, None -> (0.0, Missing)
    | None, _ -> (0.0, New)
  in
  let value = Option.value ~default:Float.nan in
  {
    f_bench = bench;
    f_level = level;
    f_metric = metric;
    f_base = value base;
    f_cur = value cur;
    f_band;
    f_status;
  }

let compare_snapshots ~base cur =
  let by_key s = List.map (fun e -> ((e.bench, e.level), e.exact)) s.entries in
  let findings =
    List.concat_map
      (fun ((bench, level), b, c) ->
        match (b, c) with
        | Some b, Some c ->
            List.map (fun (metric, b, c) -> finding ~bench ~level metric b c) (pair b c)
        | _ ->
            (* A whole entry on one side only: one finding without
               values, missing if the baseline has it, new otherwise. *)
            [ finding ~bench ~level "(entry)" (Option.map (fun _ -> Float.nan) b) None ])
      (pair (by_key base) (by_key cur))
  in
  let regressions = List.filter (fun f -> f.f_status = Regression) findings in
  let improvements = List.filter (fun f -> f.f_status = Improvement) findings in
  { findings; regressions; improvements; ok = regressions = [] }

(* ---------- JSON ---------- *)

let fail fmt = Printf.ksprintf failwith fmt

let get name j = match Json.member name j with Some v -> v | None -> fail "baseline: missing %S" name

let get_str name j = match get name j with Json.String s -> s | _ -> fail "baseline: %S not a string" name
let get_int name j = match get name j with Json.Int i -> i | _ -> fail "baseline: %S not an int" name

let number = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "baseline: exact metric not a number"

let entry_json e =
  Json.Obj
    [
      ("bench", Json.String e.bench);
      ("level", Json.String e.level);
      ("exact", Json.Obj (List.map (fun (m, v) -> (m, Json.Float v)) e.exact));
    ]

let entry_of_json j =
  let exact =
    match get "exact" j with
    | Json.Obj l -> List.map (fun (m, v) -> (m, number v)) l
    | _ -> fail "baseline: \"exact\" not an object"
  in
  { bench = get_str "bench" j; level = get_str "level" j; exact }

let to_json s =
  Json.Obj
    [
      ("version", Json.Int s.version);
      ("suite", Json.String s.suite);
      ("created", Json.String s.created);
      ("entries", Json.List (List.map entry_json s.entries));
    ]

let of_json j =
  let version = get_int "version" j in
  if version <> current_version then
    fail "baseline: version %d, this build reads version %d — re-save the baseline" version
      current_version;
  let entries =
    match get "entries" j with
    | Json.List l -> List.map entry_of_json l
    | _ -> fail "baseline: \"entries\" not a list"
  in
  { version; suite = get_str "suite" j; created = get_str "created" j; entries }

let save ~file s = Json.write_file ~pretty:true ~file (to_json s)
let load ~file = of_json (Json.read_file ~file)

(* ---------- rendering ---------- *)

let fnum v = if Float.is_nan v then "-" else Printf.sprintf "%.6g" v

let delta f =
  if Float.is_nan f.f_base || Float.is_nan f.f_cur then "-"
  else if Float.abs f.f_base > 1e-12 then
    Printf.sprintf "%+.2f%%" (100.0 *. (f.f_cur -. f.f_base) /. Float.abs f.f_base)
  else Printf.sprintf "%+.3g" (f.f_cur -. f.f_base)

let render_verdict v =
  let rows =
    List.map
      (fun f ->
        [
          f.f_bench;
          f.f_level;
          f.f_metric;
          fnum f.f_base;
          fnum f.f_cur;
          delta f;
          (if f.f_band > 0.0 then Printf.sprintf "±%.3g" f.f_band else "-");
          status_name f.f_status;
        ])
      v.findings
  in
  let table =
    Table.render
      ~aligns:
        [
          Table.Left; Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Left;
        ]
      ~header:[ "bench"; "level"; "metric"; "baseline"; "current"; "delta"; "band"; "status" ]
      rows
  in
  let summary =
    if v.ok then
      Printf.sprintf "OK: %d metrics within bounds (%d improvements)" (List.length v.findings)
        (List.length v.improvements)
    else
      Printf.sprintf "REGRESSION: %d of %d metrics out of bounds: %s"
        (List.length v.regressions) (List.length v.findings)
        (String.concat ", "
           (List.map
              (fun f -> Printf.sprintf "%s/%s %s" f.f_bench f.f_level f.f_metric)
              v.regressions))
  in
  table ^ "\n" ^ summary ^ "\n"

let finding_json f =
  Json.Obj
    [
      ("bench", Json.String f.f_bench);
      ("level", Json.String f.f_level);
      ("metric", Json.String f.f_metric);
      ("baseline", Json.Float f.f_base);
      ("current", Json.Float f.f_cur);
      ("band", Json.Float f.f_band);
      ("status", Json.String (status_name f.f_status));
    ]

let verdict_json v =
  Json.Obj
    [
      ("ok", Json.Bool v.ok);
      ("regressions", Json.Int (List.length v.regressions));
      ("improvements", Json.Int (List.length v.improvements));
      ("findings", Json.List (List.map finding_json v.findings));
    ]
