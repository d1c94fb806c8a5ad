(** Minimal JSON tree, printer and parser for the machine-readable
    emitters (run traces, batch summaries, tables), the serve daemon's
    wire lines and decision log, and the tools that read them back (the
    bench regression gate). Printing allocates the returned string and
    nothing else; parsing allocates the tree, copying each string once. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val member : string -> (string * t) list -> t option
(** [member key fields] is the value of the first field named [key], as
    [List.assoc_opt] gives it, with keys compared by [String.equal]. *)

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
