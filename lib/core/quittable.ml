(* Quittable consensus (Guerraoui-Hadzilacos-Kuznetsov-Toueg [33]) as a
   comparator.

   Section V mentions quittable consensus as a similar safety-first
   setting and dismisses it for voting: "it may output Q (for quit) and
   violates the voting validity".  This wrapper makes that concrete: run
   the safety-guaranteed protocol under a deadline; honest nodes that have
   not decided by the deadline output Q instead of staying silent.  In the
   lock-step synchronous model every honest node reaches the deadline in
   the same round, so agreement extends to Q outputs.

   The exercise shows the trade the paper calls out: quittable consensus
   restores termination unconditionally, but its output no longer always
   carries the plurality meaning — Q is an output that is nobody's
   preference. *)

module Oid = Vv_ballot.Option_id

type verdict = Value of Oid.t | Quit

type outcome = {
  verdicts : verdict list;  (** honest nodes, node-id order *)
  termination : bool;  (** always true: Q counts as an output *)
  agreement : bool;
  quit : bool;  (** the run ended in Q *)
  plurality_meaning : bool;
      (** whether the output still satisfies voting validity — false
          whenever Q was output while a strict honest plurality existed
          (the paper's objection) *)
  inner : Runner.outcome;
}

let run ?(deadline = 60) ?(strategy = Strategy.Collude_second)
    ?(tie = Vv_ballot.Tie_break.default) ?(seed = 0x900d) ~t ~f honest_inputs =
  let inner =
    Runner.simple ~protocol:Runner.Algo2_sct ~strategy ~tie ~seed
      ~max_rounds:deadline ~t ~f honest_inputs
  in
  let verdicts =
    List.map
      (function Some v -> Value v | None -> Quit)
      inner.Runner.outputs
  in
  let quit = List.exists (function Quit -> true | Value _ -> false) verdicts in
  let agreement =
    match verdicts with
    | [] -> true
    | first :: rest -> List.for_all (( = ) first) rest
  in
  let plurality_meaning =
    (not quit)
    || not (Vv_ballot.Validity.has_strict_plurality ~honest_inputs)
  in
  { verdicts; termination = true; agreement; quit; plurality_meaning; inner }
