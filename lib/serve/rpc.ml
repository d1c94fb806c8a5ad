(* Line-delimited JSON-RPC vocabulary of the serve daemon.

   One request or notification per line, every payload a single JSON
   object.  Requests carry a caller-chosen [id] (echoed verbatim in the
   response); decision notifications carry no id — they are streamed to
   every connected client as slots commit.

     {"id":7,"method":"submit","params":{"subject":3,"inputs":[0,1,0]}}
     {"id":7,"result":{"accepted":true,"position":12,"slot":3}}
     {"method":"decision","params":{"index":12,"slot":3,"lane":0,...}}

   Parsing and rendering are pure string functions — the server loop owns
   all I/O — so the hot path is testable and its allocation budget can be
   pinned (test_perf.ml). *)

module Json = Vv_prelude.Json
module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine

type incoming =
  | Submit of { id : Json.t; subject : int; inputs : Oid.t list }
  | Flush of { id : Json.t }
  | Status of { id : Json.t }
  | Catchup of { id : Json.t; from : int }
  | Shutdown of { id : Json.t }

let id_of = function
  | Submit { id; _ } | Flush { id } | Status { id } | Catchup { id; _ }
  | Shutdown { id } ->
      id

let parse line =
  match Json.of_string line with
  | Error msg -> Error ("request is not valid JSON: " ^ msg)
  | Ok (Json.Obj fields) -> (
      let id = Option.value ~default:Json.Null (Json.member "id" fields) in
      let params =
        match Json.member "params" fields with
        | Some (Json.Obj p) -> p
        | _ -> []
      in
      match Json.member "method" fields with
      | Some (Json.String "submit") -> (
          match (Json.member "subject" params, Json.member "inputs" params) with
          | Some (Json.Int subject), Some (Json.List items) ->
              let rec ints acc = function
                | [] -> Ok (List.rev acc)
                | Json.Int i :: rest when i >= 0 ->
                    ints (Oid.of_int i :: acc) rest
                | Json.Int _ :: _ ->
                    Error "submit: inputs must be non-negative option ids"
                | _ -> Error "submit: inputs must be a list of integers"
              in
              Result.map
                (fun inputs -> Submit { id; subject; inputs })
                (ints [] items)
          | _ -> Error "submit: params need subject:int and inputs:[int,...]")
      | Some (Json.String "flush") -> Ok (Flush { id })
      | Some (Json.String "status") -> Ok (Status { id })
      | Some (Json.String "catchup") -> (
          match Json.member "from" params with
          | Some (Json.Int from) -> Ok (Catchup { id; from })
          | None -> Ok (Catchup { id; from = 0 })
          | Some _ -> Error "catchup: from must be an integer")
      | Some (Json.String "shutdown") -> Ok (Shutdown { id })
      | Some (Json.String m) -> Error (Printf.sprintf "unknown method %S" m)
      | _ -> Error "request carries no method")
  | Ok _ -> Error "request is not a JSON object"

(* --- rendering (no trailing newline; the transport adds it) --- *)

let result ~id payload =
  Json.to_string (Json.Obj [ ("id", id); ("result", payload) ])

let error ~id message =
  Json.to_string
    (Json.Obj
       [ ("id", id); ("error", Json.Obj [ ("message", Json.String message) ]) ])

let submit_ack ~id ~position ~slot ~lane =
  result ~id
    (Json.Obj
       [
         ("accepted", Json.Bool true);
         ("position", Json.Int position);
         ("slot", Json.Int slot);
         ("lane", Json.Int lane);
       ])

(* A decision notification: the slot record plus its (slot, lane)
   coordinates under the server's batch size. *)
let decision ~batch (s : Ledger.slot) =
  let fields =
    match Ledger.slot_to_json s with Json.Obj f -> f | _ -> assert false
  in
  Json.to_string
    (Json.Obj
       [
         ("method", Json.String "decision");
         ( "params",
           Json.Obj
             (("slot", Json.Int (s.Ledger.index / batch))
              :: ("lane", Json.Int (s.Ledger.index mod batch))
              :: fields) );
       ])

(* Reconstruct the slot record from a parsed decision notification;
   [None] for any other value. *)
let decision_of_json = function
  | Json.Obj fields -> (
      match (Json.member "method" fields, Json.member "params" fields) with
      | Some (Json.String "decision"), Some params ->
          Result.to_option (Ledger.slot_of_json params)
      | _ -> None)
  | _ -> None

let decision_of_line line =
  match Json.of_string line with
  | Ok j -> decision_of_json j
  | Error _ -> None

let status_json ?(extra = []) engine =
  let st = Engine.stats engine in
  let cfg = Engine.config engine in
  Json.Obj
    (extra
    @ [
      ("n", Json.Int cfg.Ledger.n);
      ("t", Json.Int cfg.Ledger.t);
      ("batch", Json.Int (Engine.batch engine));
      ("height", Json.Int (Engine.height engine));
      ("pending", Json.Int (Engine.pending engine));
      ("committed", Json.Int st.Engine.committed);
      ("skipped", Json.Int st.Engine.skipped);
      ("slots_used", Json.Int st.Engine.slots_used);
      ("attempts_total", Json.Int st.Engine.attempts_total);
      ("rounds_instances", Json.Int st.Engine.rounds_instances);
      ("rounds_sequential", Json.Int st.Engine.rounds_sequential);
      ("rounds_pipelined", Json.Int st.Engine.rounds_pipelined);
      ("all_committed_valid", Json.Bool st.Engine.all_valid);
    ])
