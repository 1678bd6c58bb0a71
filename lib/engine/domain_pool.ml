type 'a task = { mutable outcome : ('a, exn * Printexc.raw_backtrace) result option }

(* A parked domain sleeps in a read of its own socket, which [spawn]
   writes one byte to when it hands the domain a job. The byte is only
   a wake-up: [job], read under the lock, says whether there is work,
   so a byte left over from a job taken after a timeout is harmless.
   The read times out after [idle_s]. A job runs its task without the
   lock and returns the step that publishes the outcome, which runs
   under the lock. *)
type worker = {
  wake_rx : Unix.file_descr;
  wake_tx : Unix.file_descr;
  mutable job : (unit -> unit -> unit) option;
}

(* Every live domain, parked or not, takes part in each stop-the-world
   minor collection, which costs several times more once domains
   outnumber cores. So a domain leaves the pool after this long
   without a job: long enough to be reused across back-to-back
   service lifecycles or executor runs, short enough not to tax the
   single-domain work that follows them. *)
let idle_s = 0.25

let lock = Mutex.create ()

(* Broadcast whenever a task ends. *)
let ended = Condition.create ()

(* Parked domains, the most recently parked first. *)
let parked : worker list ref = ref []

(* A task's domain parks in the same critical section that publishes
   the task's outcome, so a joiner never sees the outcome before the
   domain is back in [parked]. *)
let rec serve w job =
  let publish = job () in
  Mutex.lock lock;
  publish ();
  parked := w :: !parked;
  Condition.broadcast ended;
  Mutex.unlock lock;
  park w

and park w =
  let timed_out =
    match Unix.read w.wake_rx (Bytes.create 1) 0 1 with
    | _ -> false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  Mutex.lock lock;
  match w.job with
  | Some next ->
      w.job <- None;
      Mutex.unlock lock;
      serve w next
  | None when not timed_out ->
      Mutex.unlock lock;
      park w
  | None ->
      parked := List.filter (fun p -> p != w) !parked;
      Mutex.unlock lock;
      Unix.close w.wake_rx;
      Unix.close w.wake_tx

let spawn f =
  let t = { outcome = None } in
  let job () =
    let outcome = match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ()) in
    fun () -> t.outcome <- Some outcome
  in
  Mutex.lock lock;
  (match !parked with
  | w :: rest ->
      parked := rest;
      w.job <- Some job;
      Mutex.unlock lock;
      ignore (Unix.write_substring w.wake_tx "x" 0 1)
  | [] ->
      Mutex.unlock lock;
      let wake_rx, wake_tx = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.setsockopt_float wake_rx Unix.SO_RCVTIMEO idle_s;
      ignore (Domain.spawn (fun () -> serve { wake_rx; wake_tx; job = None } job)));
  t

let join t =
  let rec wait () =
    match t.outcome with
    | None ->
        Condition.wait ended lock;
        wait ()
    | Some outcome -> outcome
  in
  match Mutex.protect lock wait with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
