(** One process-wide pool of parked domains.

    A domain is costly to start and to tear down, and a process that
    starts many of them over its life (a daemon creating and shutting
    down services, an executor run per build) grows its heap with each.
    Every domain the library runs comes from here: {!spawn} hands a task
    to a parked domain, or starts a new one when none is parked, and the
    domain parks again as soon as its task ends. A domain parked for a
    quarter of a second without a new task ends: every live domain
    takes part in each stop-the-world minor collection, so idle ones
    would slow the rest of the process. Parked domains do not keep the
    process alive. *)

type 'a task

val spawn : (unit -> 'a) -> 'a task
(** Runs the function on a pooled domain. *)

val join : 'a task -> 'a
(** Waits for the task and returns its value, or re-raises the
    exception it raised, with its backtrace, as [Domain.join] does. By
    the time [join] returns, the task's domain is parked again, so a
    following {!spawn} reuses it. *)
