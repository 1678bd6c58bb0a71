(* Shared plumbing of the workloads: wall-clock timing, sample
   summaries, the attempted/failed tally, and scratch directories. *)

module Stats = Pld_util.Stats

let now = Unix.gettimeofday

let median = Stats.median
let p90 xs = Stats.percentile 90.0 xs
let geomean = Stats.geometric_mean

(* The median and 90th percentile of samples that fall in groups of
   very different scale (benches, request kinds). A percentile over the
   pooled samples sits on the boundary between two groups and jumps
   with the mix, and a percentile per group has too few samples beyond
   it, so: the geometric mean of the group medians, and that times the
   90th percentile of every sample over its own group's median. *)
let grouped_percentiles groups =
  let groups = List.filter (fun g -> g <> []) groups in
  let p50 = geomean (List.map median groups) in
  let tail = List.concat_map (fun g -> List.map (fun x -> x /. median g) g) groups in
  (p50, p50 *. p90 tail)

(* Wall seconds of [f]. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Machine-speed calibration. On a shared VM (measured: 2 vCPUs of an
   Intel Xeon) speed drifts by up to ~1.7x within minutes, in phases of
   seconds, with neither steal time nor a CPU-time difference to show
   it. A fixed kernel — pure integer work over an L2-sized array,
   allocation-free so the heap the system under test leaves behind
   cannot slow it — is timed every quarter second of measurement, and
   each measured operation is reported in reference seconds: its wall
   seconds scaled by [reference_s] over the median of the last three
   kernel times, i.e. seconds on a machine where the kernel takes
   [reference_s]. *)
let reference_s = 0.005
let kernel_mem = Array.make (1 lsl 15) 0

let kernel () =
  let a = kernel_mem in
  let mask = Array.length a - 1 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 2_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = (!x lsr 7) land mask in
    acc := !acc + a.(i) + (!acc lsr 3);
    a.(i) <- !acc land 0xFFFF
  done;
  !acc

let interval_s = 0.25
let recent = ref []
let last_calibration = ref neg_infinity

let calibrate () =
  let (_ : int), dt = time (fun () -> Sys.opaque_identity (kernel ())) in
  recent := List.filteri (fun i _ -> i < 3) (dt :: !recent);
  last_calibration := now ()

(* The kernel time current now: the median of the last three samples. *)
let kernel_now () = median !recent

(* Calibrate (three times, the first time) when the last sample is
   older than [interval_s], unless [until], a deadline the caller must
   meet, leaves too little time for the kernel. *)
let calibrate_if_stale ?(until = infinity) () =
  if !recent = [] then for _ = 1 to 3 do calibrate () done
  else if now () -. !last_calibration > interval_s && until -. now () > 3.0 *. reference_s then calibrate ()

let to_reference ~kernel_s wall = wall *. reference_s /. kernel_s

(* Summed wall and reference seconds of every measured operation: their
   ratio is the run's average speed factor, stamped on the result. *)
let wall_total = ref 0.0
let reference_total = ref 0.0

(* One measured operation: [(result, wall seconds, reference
   seconds)]. Operations longer than a calibration interval are scaled
   by the kernel times on both sides of them. *)
let op f =
  calibrate_if_stale ();
  let before = kernel_now () in
  let r, wall = time f in
  let kernel_s =
    if wall > interval_s then begin
      calibrate ();
      (before +. kernel_now ()) /. 2.0
    end
    else before
  in
  let reference = to_reference ~kernel_s wall in
  wall_total := !wall_total +. wall;
  reference_total := !reference_total +. reference;
  (r, wall, reference)

let speed_factor () = if !wall_total > 0.0 then !reference_total /. !wall_total else 1.0

(* The process's high-water resident set (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  scan ()

(* Operations attempted and failed (raised, refused, or produced a
   wrong output). *)
type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 10 then tally.errors <- msg :: tally.errors

(* [attempt tally what f] counts one operation; an exception or a
   [false] verdict counts it failed. *)
let attempt tally what f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | true -> ()
  | false -> fail tally (what ^ ": wrong output")
  | exception e -> fail tally (what ^ ": " ^ Printexc.to_string e)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun c -> rm_rf (Filename.concat path c)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755;
  path

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric name unit_ ?(samples = 1) value = { name; unit_; value; samples }
