(** Minimal JSON tree with a printer and a parser.

    The telemetry exporters need to *write* valid JSON (Chrome
    trace-event files that Perfetto loads, flat metrics documents) and
    the tests need to *read it back* to prove the files parse — without
    pulling a JSON dependency into the build. Numbers are split into
    [Int] and [Float] so counters round-trip exactly; a finite float
    prints with enough digits to read back as the same float, and
    non-finite floats are serialized as [null] (JSON has no
    NaN/infinity). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a position-annotated message. *)

val to_string : t -> string
(** Compact (single-line) serialization. *)

val pretty : t -> string
(** Indented (2-space) multi-line serialization — same document as
    {!to_string} but diffable in review. Empty lists and objects stay
    on one line. *)

val of_string : string -> t
(** Parse a complete JSON document (trailing whitespace allowed).
    Numbers without [.]/[e] that fit an OCaml [int] come back as
    [Int]; everything else numeric as [Float]. [\u]-escapes are
    decoded to UTF-8 (surrogate pairs combine into one code point; a
    lone surrogate decodes to U+FFFD). Raises {!Parse_error} on
    malformed input, with the byte offset in the message. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] for a missing field or any other
    constructor. *)

(** Result-returning readers for the [of_json] decoders: an [Error]
    names the missing field; the caller prefixes its document kind. *)
module Decode : sig
  val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

  val str_field : t -> string -> (string, string) result
  (** The [String] field [name] of an object. *)

  val int_field : t -> string -> (int, string) result
  (** The [Int] field [name] of an object. *)

  val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
  (** Decode every element, stopping at the first [Error]. *)
end

val write_file : ?pretty:bool -> file:string -> t -> unit
(** Serialize to [file] with a trailing newline (truncating any
    existing file). [pretty] (default false) selects the indented
    form — used for benchmark and regression artifacts that get
    diffed in review. *)

val read_file : file:string -> t
(** Parse the whole of [file], closing it even when parsing fails.
    Raises [Sys_error] on I/O failure and {!Parse_error} on bad JSON. *)
