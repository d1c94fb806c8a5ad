(** Output-format selection shared by every vvc experiment subcommand.

    All three formats render the same {!Vv_prelude.Table.t} values, so
    [--format] changes the encoding, never the data. *)

type format = Table | Csv | Json

val all : format list
val to_string : format -> string
val of_string : string -> format option

val table_string : format -> Vv_prelude.Table.t -> string
(** Render one table in the chosen format (JSON on one line, trailing
    newline included). {!table} prints exactly these bytes. *)

val tables_string : format -> Vv_prelude.Table.t list -> string
(** Render several; under [Json] they form one top-level array — one
    top-level JSON value, not a stream. *)

val table : format -> Vv_prelude.Table.t -> unit
(** Print one table in the chosen format (JSON on one line). *)
