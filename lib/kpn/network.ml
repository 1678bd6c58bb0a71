open Pld_ir
module Telemetry = Pld_telemetry.Telemetry
module Log = Pld_telemetry.Log
module Pmu = Pld_telemetry.Pmu

type _ Effect.t += Yield : unit Effect.t

type channel = {
  chan_name : string;
  elem : Dtype.t;
  capacity : int;
  buf : Value.t Queue.t;
  net : net;
  mutable tokens : int;
  mutable peak : int;
  mutable read_blocks : int;
  mutable write_blocks : int;
  pmu_read : Pmu.series option;
  pmu_write : Pmu.series option;
  pmu_occ : Pmu.series option;
}

and net = { mutable progress : int; mutable channels : channel list; mutable round : int }

type t = {
  net : net;
  mutable procs : (string * (unit -> unit)) list;
  tele : Telemetry.t;
  pmu : Pmu.t option;
}

exception Deadlock of string list
exception Out_of_fuel of { steps : int; live : string list }

let create ?(telemetry = Telemetry.default) ?pmu () =
  { net = { progress = 0; channels = []; round = 0 }; procs = []; tele = telemetry; pmu }

let channel t ?(capacity = 16) ~name elem =
  if capacity < 1 then invalid_arg "Network.channel: capacity must be >= 1";
  let pmu_series suffix unit_ =
    Option.map (fun p -> Pmu.series p ~unit_ ("kpn.chan." ^ name ^ "." ^ suffix)) t.pmu
  in
  let c =
    {
      chan_name = name;
      elem;
      capacity;
      buf = Queue.create ();
      net = t.net;
      tokens = 0;
      peak = 0;
      read_blocks = 0;
      write_blocks = 0;
      pmu_read = pmu_series "stall_read" "stalls";
      pmu_write = pmu_series "stall_write" "stalls";
      pmu_occ = pmu_series "occupancy" "tokens";
    }
  in
  t.net.channels <- c :: t.net.channels;
  c

let enqueue c v =
  Queue.push v c.buf;
  c.tokens <- c.tokens + 1;
  c.peak <- max c.peak (Queue.length c.buf);
  c.net.progress <- c.net.progress + 1

let read c =
  while Queue.is_empty c.buf do
    c.read_blocks <- c.read_blocks + 1;
    (match c.pmu_read with Some s -> Pmu.add s ~cycle:c.net.round 1.0 | None -> ());
    Effect.perform Yield
  done;
  let v = Queue.pop c.buf in
  c.net.progress <- c.net.progress + 1;
  v

let write c v =
  while Queue.length c.buf >= c.capacity do
    c.write_blocks <- c.write_blocks + 1;
    (match c.pmu_write with Some s -> Pmu.add s ~cycle:c.net.round 1.0 | None -> ());
    Effect.perform Yield
  done;
  enqueue c v

let yield () = Effect.perform Yield

let note_progress (t : t) = t.net.progress <- t.net.progress + 1

let try_read c =
  if Queue.is_empty c.buf then None
  else begin
    let v = Queue.pop c.buf in
    c.net.progress <- c.net.progress + 1;
    Some v
  end
let try_write c v =
  if Queue.length c.buf >= c.capacity then false
  else begin
    enqueue c v;
    true
  end

let push c v = enqueue c v

let drain c =
  let out = ref [] in
  while not (Queue.is_empty c.buf) do
    out := Queue.pop c.buf :: !out
  done;
  List.rev !out

let occupancy c = Queue.length c.buf

let add_process t ~name body = t.procs <- (name, body) :: t.procs

type outcome = Finished | Yielded of (unit, outcome) Effect.Deep.continuation

let start body () =
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> Some (fun (k : (a, outcome) Effect.Deep.continuation) -> Yielded k)
          | _ -> None);
    }

(* Per-process cap on recorded firing spans: a long cosim fires each
   instance millions of times; the first firings carry the shape of the
   schedule, the rest would only blow up the trace. *)
let firing_span_budget = 256

let run ?(fuel = 50_000_000) t =
  let live = Queue.create () in
  List.iter (fun (name, body) -> Queue.push (name, start body) live) (List.rev t.procs);
  let steps = ref 0 in
  (* Satellite: the span budget used to clip silently. Every dropped
     firing span is now counted, and the first one per run leaves a
     structured breadcrumb pointing at the counter. *)
  let dropped_spans = Telemetry.counter t.tele "kpn.spans_dropped" in
  let warned_drop = ref false in
  (* One cosim track per process instance; firing spans land on it.
     The third slot is the PMU firing series (rounds clock). *)
  let tracks = Hashtbl.create 8 in
  let track_of name =
    match Hashtbl.find_opt tracks name with
    | Some tr -> tr
    | None ->
        let fire =
          Option.map (fun p -> Pmu.series p ~unit_:"firings" ("kpn.proc." ^ name ^ ".firings")) t.pmu
        in
        let tr = (Telemetry.alloc_track t.tele ~cat:"cosim" name, ref 0, fire) in
        Hashtbl.replace tracks name tr;
        tr
  in
  (* A "round" visits every live process once; if no token moved during
     a round and nothing finished, the network is deadlocked. *)
  let rec loop () =
    if Queue.is_empty live then ()
    else begin
      let round = Queue.length live in
      let before = t.net.progress in
      let finished = ref false in
      for _ = 1 to round do
        let name, resume = Queue.pop live in
        incr steps;
        if !steps > fuel then
          raise
            (Out_of_fuel
               { steps = !steps; live = name :: List.map fst (List.of_seq (Queue.to_seq live)) });
        let track, fired, fire = track_of name in
        (match fire with Some s -> Pmu.add s ~cycle:t.net.round 1.0 | None -> ());
        let t0 = Telemetry.now_us t.tele in
        let outcome = resume () in
        if !fired < firing_span_budget then begin
          incr fired;
          Telemetry.span t.tele ~cat:"cosim" ~track ~name
            ~start_us:t0
            ~dur_us:(Telemetry.now_us t.tele -. t0)
            ()
        end
        else begin
          Telemetry.incr dropped_spans;
          if not !warned_drop then begin
            warned_drop := true;
            Log.warn Log.default
              ~fields:
                [
                  ("process", name); ("budget", string_of_int firing_span_budget);
                  ("counter", "kpn.spans_dropped");
                ]
              ~sub:"kpn" "firing-span budget exhausted; further spans counted, not recorded"
          end
        end;
        match outcome with
        | Finished -> finished := true
        | Yielded k -> Queue.push (name, fun () -> Effect.Deep.continue k ()) live
      done;
      t.net.round <- t.net.round + 1;
      (* Occupancy is sampled once per scheduler round — the KPN's
         modeled clock — so the PMU windows show queue depth over
         time, not just the high-water mark. *)
      if t.pmu <> None then
        List.iter
          (fun c ->
            match c.pmu_occ with
            | Some s -> Pmu.add s ~cycle:t.net.round (float_of_int (Queue.length c.buf))
            | None -> ())
          t.net.channels;
      if (not !finished) && t.net.progress = before && not (Queue.is_empty live) then
        raise (Deadlock (List.map fst (List.of_seq (Queue.to_seq live))));
      loop ()
    end
  in
  (* Channel high-water marks and the resume count are published even
     when the run dies (a deadlock trace with occupancy gauges is
     exactly when you want them). *)
  Fun.protect
    ~finally:(fun () ->
      Telemetry.incr ~by:!steps (Telemetry.counter t.tele "kpn.resumes");
      List.iter
        (fun c ->
          Telemetry.max_gauge
            (Telemetry.gauge t.tele ("kpn." ^ c.chan_name ^ ".peak"))
            (float_of_int c.peak))
        t.net.channels)
    loop

type channel_stats = {
  chan : string;
  tokens : int;
  peak_occupancy : int;
  block_events : int;
  blocked_reads : int;
  blocked_writes : int;
}

let stats t =
  List.rev_map
    (fun c ->
      {
        chan = c.chan_name;
        tokens = c.tokens;
        peak_occupancy = c.peak;
        block_events = c.read_blocks + c.write_blocks;
        blocked_reads = c.read_blocks;
        blocked_writes = c.write_blocks;
      })
    t.net.channels
