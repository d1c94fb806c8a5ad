(* Output-format selection shared by every vvc experiment subcommand.
   Tables are the human-facing default; csv and json render the same
   underlying Table.t, so switching format never changes the data. *)

module Table = Vv_prelude.Table
module Json = Vv_prelude.Json

type format = Table | Csv | Json

let all = [ Table; Csv; Json ]

let to_string = function Table -> "table" | Csv -> "csv" | Json -> "json"

let of_string = function
  | "table" -> Some Table
  | "csv" -> Some Csv
  | "json" -> Some Json
  | _ -> None

(* The [*_string] renderers are the source of truth; the printing entry
   point below emits exactly those bytes, so writing a rendering to a
   file (vvc --out) is byte-identical to printing it. Table.pp uses no
   break hints, so rendering through a string formatter cannot reflow. *)

let table_string fmt tbl =
  match fmt with
  | Table -> Format.asprintf "%a" Table.pp tbl
  | Csv -> Table.to_csv tbl
  | Json -> Json.to_string (Table.to_json tbl) ^ "\n"

let tables_string fmt tbls =
  match fmt with
  | Table | Csv -> String.concat "" (List.map (table_string fmt) tbls)
  | Json ->
      (* One top-level JSON value, not a stream of them. *)
      Json.to_string (Json.List (List.map Table.to_json tbls)) ^ "\n"

let table fmt tbl = print_string (table_string fmt tbl)
