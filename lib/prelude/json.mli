(** Minimal JSON tree, printer and parser for the machine-readable
    emitters (run traces, batch summaries, tables) and the tools that read
    them back (the bench regression gate). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) JSON. [Float] values with no JSON representation
    (NaN, infinities) print as [null]. *)

val pp : Format.formatter -> t -> unit

val of_int_option : int option -> t
(** [None] is [Null]. *)

val of_string : string -> (t, string) result
(** Parse one JSON document. [\uXXXX] escapes decode to UTF-8 — surrogate
    pairs combine into one non-BMP code point, lone surrogates are an
    error. Numbers without fraction or exponent parse as [Int], the rest
    as [Float]. [Error] carries a message with the byte offset. *)
