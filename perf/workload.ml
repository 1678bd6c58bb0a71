(* What every workload shares: its size, its result, and the output
   oracle. *)

open Pld_ir

type size = {
  setups : int;  (** set-ups timed; [setup_s] is their median *)
  cold : int;  (** at least this many cold compile passes ... *)
  warm : int;  (** ... warm compile passes ... *)
  runs : int;  (** ... and deploy + run + check passes, *)
  phase_seconds : float;  (** each kind repeated until it has taken this long *)
  seconds : float;  (** measurement budget: edits continue until it is spent *)
  min_edits : int;
  max_edits : int;
  requests : int;  (** service requests per rate *)
}

(* The load behind BENCHMARK.json: 7 set-ups; at least 3 cold, 5 warm
   and 3 run passes and two seconds of each; then edits until [seconds] of
   measured time, and for at least half of it. The service gets 6
   requests per second of budget at each of its two rates, an open
   loop lasting 0.9 [seconds] at 10 and 20 requests per second. *)
let timed seconds =
  {
    setups = 7;
    cold = 3;
    warm = 5;
    runs = 3;
    phase_seconds = 2.0;
    seconds;
    min_edits = 12;
    max_edits = max_int;
    requests = max 10 (int_of_float (6.0 *. seconds));
  }

let toy =
  {
    setups = 1;
    cold = 1;
    warm = 1;
    runs = 1;
    phase_seconds = 0.0;
    seconds = 0.0;
    min_edits = 3;
    max_edits = 3;
    requests = 5;
  }

(* [repeat ~min ~seconds f] calls [f k] for k = 0, 1, ... until it has
   run at least [min] times and taken at least [seconds]: [f] returns
   its wall seconds and a value, [repeat] the values in order. *)
let repeat ~min ~seconds f =
  let rec go k spent acc =
    if k >= min && spent >= seconds then List.rev acc
    else
      let wall, v = f k in
      go (k + 1) (spent +. wall) (v :: acc)
  in
  go 0 0.0 []

(* [set_up n f] times [f] [n] times as measured operations: the last
   result, and the reference seconds of each call in order. *)
let set_up n f =
  let rec go k last times =
    if k = n then (Option.get last, List.rev times)
    else
      let s, _, dt = Measure.op f in
      go (k + 1) (Some s) (dt :: times)
  in
  go 0 None []

let samples_json named =
  ( "samples",
    Pld_telemetry.Json.Obj
      (List.map (fun (n, xs) -> (n, Pld_telemetry.Json.List (List.map (fun x -> Pld_telemetry.Json.Float x) xs))) named) )

type result = {
  metrics : Measure.metric list;
  attempted : int;
  failed : int;
  errors : string list;
  params : (string * Pld_telemetry.Json.t) list;  (** workload parameters, for the result stamp *)
}

(* One executor domain per compile. pldc's default on 2 cores is 2,
   but on a shared 2-vCPU VM a second domain's speed is erratic (other
   tenants share the cores, and OCaml's stop-the-world minor
   collections stall both domains on either one's jitter): compile
   times at -j2 spread twice as wide as at -j1 across runs, wider than
   any useful bound. *)
let jobs = 1

let hw = Graph.Hw { page_hint = None }

(* Bit-identical streams on every output channel. *)
let same_outputs a b =
  List.length a = List.length b
  && List.for_all
       (fun (name, vs) ->
         match List.assoc_opt name b with
         | Some ws -> List.length vs = List.length ws && List.for_all2 Value.equal vs ws
         | None -> false)
       a
