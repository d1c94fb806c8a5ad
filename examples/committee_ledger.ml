(* A governance committee deciding a sequence of motions (multi-shot).

   Nine council nodes (two compromised) vote on a series of motions; each
   motion is one voting-validity instance appended to a ledger.  The
   safety-guaranteed protocol underneath means the ledger NEVER records a
   decision that is not the exact plurality of honest preferences: thin
   motions are retried under rotating speakers with electorate adjustment
   (Section V-B), or skipped.

     dune exec examples/committee_ledger.exe *)

module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine

let options = [| "approve"; "reject"; "amend"; "defer" |]
let name_of o = options.(Oid.to_int o)

let motions =
  [
    (* (title, honest preferences over approve/reject/amend/defer) *)
    ("M1: adopt budget", [ 0; 0; 0; 0; 0; 1; 2 ]);
    ("M2: elect auditor", [ 1; 1; 1; 1; 0; 0; 2 ]);
    ("M3: contested bylaw", [ 0; 0; 0; 1; 1; 2; 3 ]);
    ("M4: renew mandate", [ 0; 0; 0; 0; 0; 0; 0 ]);
  ]

let () =
  Fmt.pr "== Committee ledger: 9 nodes, 2 compromised, SCT underneath ==@.@.";
  let cfg =
    Ledger.config ~byzantine:[ 7; 8 ]
      ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6)) ~n:9
      ~t:2 ()
  in
  let ledger = Engine.create cfg in
  List.iteri
    (fun i (title, prefs) ->
      let inputs = List.map Oid.of_int prefs @ [ Oid.of_int 0; Oid.of_int 0 ] in
      Fmt.pr "%-22s honest: %a@." title
        Fmt.(list ~sep:sp (using name_of string))
        (List.map Oid.of_int prefs);
      ignore (Engine.submit ledger ~subject:(i + 1) inputs);
      List.iter (Fmt.pr "  -> %a@.@." Ledger.pp_slot) (Engine.step ledger))
    motions;
  let stats = Engine.stats ledger in
  Fmt.pr "ledger height: %d, committed: %d@." (Engine.height ledger)
    stats.Engine.committed;
  Fmt.pr "every committed decision is the exact honest plurality: %b@."
    (Engine.all_committed_valid ledger);
  assert (Engine.all_committed_valid ledger)
