(** Small descriptive-statistics helpers used by the benchmark harness. *)

val mean : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0, 100]; linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty list. *)

val median : float list -> float

val histogram : bins:int -> float list -> (float * float * int) list
(** [(lo, hi, count)] triples covering min..max in [bins] equal bins. *)

val geometric_mean : float list -> float

val summary : float list -> string
(** One-line "min/median/mean/max" rendering for logs. *)
