(* Compare two sets of runs metric by metric against the regression
   bounds in BENCHMARK.json. *)

module Json = Pld_telemetry.Json

type verdict = Agree | Worse | Better | Unresolved

let verdict_name = function Agree -> "agree" | Worse -> "worse" | Better -> "better" | Unresolved -> "unresolved"

type bound = { metric : string; lower_is_better : bool; bound : float }

let fail fmt = Printf.ksprintf failwith fmt
let str = function Some (Json.String s) -> s | _ -> fail "expected a string"
let num = function Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> fail "expected a number"

let bounds_of_benchmark file =
  match Json.member "end_to_end" (Json.of_string (In_channel.with_open_text file In_channel.input_all)) with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          {
            metric = str (Json.member "name" m);
            lower_is_better = str (Json.member "better" m) = "lower";
            bound = num (Json.member "bound" m);
          })
        ms
  | _ -> fail "%s: no end_to_end list" file

(* Result files hold one run per line, as [run --out] appends them:
   [(workload, metric, value)] triples. *)
let samples_of_results file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.concat_map (fun line ->
         let run = Json.of_string line in
         let workload = str (Json.member "workload" run) in
         match Json.member "metrics" run with
         | Some (Json.Obj ms) -> List.map (fun (name, m) -> (workload, name, num (Json.member "value" m))) ms
         | _ -> fail "%s: a run without metrics" file)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so spreads match the tooling that reads
   BENCHMARK.json. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = min (n - 1) (max 1 (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let compare_sets b ~parent ~change =
  let _, mp, _ = quartiles parent and _, mc, _ = quartiles change in
  let worse_by = if mp = 0.0 then 0.0 else (if b.lower_is_better then mc -. mp else mp -. mc) /. Float.abs mp in
  let better x y = if b.lower_is_better then x < y else x > y in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change in
  let v =
    if Float.max (spread parent) (spread change) > b.bound then if all_better then Better else Unresolved
    else if worse_by > b.bound then Worse
    else if -.worse_by > b.bound then Better
    else Agree
  in
  (mp, mc, worse_by, v)

(* Prints one row per (metric, workload) present in both sets; true
   when none is worse. *)
let run ~benchmark ~parent ~change =
  let bounds = bounds_of_benchmark benchmark in
  let a = samples_of_results parent and b = samples_of_results change in
  let values set w m = List.filter_map (fun (w', m', v) -> if w = w' && m = m' then Some v else None) set in
  let workloads = List.sort_uniq compare (List.map (fun (w, _, _) -> w) a) in
  Printf.printf "%-10s %-20s %12s %12s %8s %6s  %s\n" "workload" "metric" "A median" "B median" "worse" "bound"
    "verdict";
  List.fold_left
    (fun ok w ->
      List.fold_left
        (fun ok bnd ->
          match (values a w bnd.metric, values b w bnd.metric) with
          | [], _ | _, [] -> ok
          | pa, pb ->
              let ma, mb, worse_by, v = compare_sets bnd ~parent:pa ~change:pb in
              Printf.printf "%-10s %-20s %12.6g %12.6g %+7.1f%% %5.0f%%  %s (n=%d/%d)\n" w bnd.metric ma mb
                (100.0 *. worse_by) (100.0 *. bnd.bound) (verdict_name v) (List.length pa) (List.length pb);
              ok && v <> Worse)
        ok bounds)
    true workloads
