(** Line-delimited JSON-RPC vocabulary of the serve daemon: one JSON
    object per line; requests echo their [id], decisions stream as
    id-less notifications. Pure string functions — the server loop owns
    all I/O. *)

module Json = Vv_prelude.Json
module Oid = Vv_ballot.Option_id

type incoming =
  | Submit of { id : Json.t; subject : int; inputs : Oid.t list }
  | Flush of { id : Json.t }
  | Status of { id : Json.t }
  | Catchup of { id : Json.t; from : int }
  | Shutdown of { id : Json.t }

val parse : string -> (incoming, string) result
(** Any line — malformed JSON, an unknown method, a negative option id —
    yields [Error] with a message for the error response; never raises. *)

val result : id:Json.t -> Json.t -> string
val error : id:Json.t -> string -> string
val submit_ack : id:Json.t -> position:int -> slot:int -> lane:int -> string

val decision : batch:int -> Vv_multishot.Ledger.slot -> string
(** The notification streamed for one committed slot. *)

val decision_of_line : string -> Vv_multishot.Ledger.slot option
(** Reconstruct the slot record from a streamed decision line; [None]
    for any other line. *)

val decision_of_json : Json.t -> Vv_multishot.Ledger.slot option
(** {!decision_of_line} on a line already parsed, for a reader that also
    handles the lines that are not decisions. *)

val status_json :
  ?extra:(string * Json.t) list -> Vv_multishot.Engine.t -> Json.t
(** The status result payload; [extra] fields (a daemon's role, follower
    link state) are prepended to the engine figures. *)
