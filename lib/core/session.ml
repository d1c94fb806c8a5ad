(* Multi-round voting sessions (Section V-B).

   A safety-guaranteed protocol trades termination for exactness: when the
   honest gap A_G - B_G is within the adversary's reach the instance
   stalls.  The paper's remedy is operational: "the distributed system can
   conduct multiple rounds of votes ... nodes can adjust their voting
   preferences (e.g., reconsider A and not vote for options in C) to
   enlarge A_G - B_G and allow the consensus to terminate successfully."

   This module runs that loop: execute an instance; if it stalls, apply a
   preference-adjustment policy to the honest electorate and revote, up to
   a session limit.  Adjustment is modelled at the electorate level (which
   honest voters reconsider), deterministically from the seed. *)

module Oid = Vv_ballot.Option_id

type policy =
  | Abandon_third
      (** every voter whose option ranks below the top two switches to one
          of the top two (uniformly at random): the paper's own example *)
  | Bandwagon
      (** every voter not already on the leading option switches to it
          with probability 1/2 — stronger, converges faster *)
  | Custom of (rng:Vv_prelude.Rng.t -> leader:Oid.t -> runner_up:Oid.t option -> Oid.t -> Oid.t)
      (** user-supplied per-voter adjustment *)

type attempt = {
  round : int;  (** session round, from 1 *)
  inputs : Oid.t list;  (** honest preferences used this round *)
  outcome : Runner.outcome;
}

type result = {
  attempts : attempt list;  (** in execution order *)
  decided : Oid.t option;  (** the common decision, if any round terminated *)
  sessions_used : int;
}

let adjust ~tie ~rng policy inputs =
  let ranked =
    Vv_ballot.Tally.ranked ~tie (Vv_ballot.Tally.of_list inputs)
  in
  match ranked with
  | [] | [ _ ] -> inputs
  | (leader, _) :: (runner_up, _) :: _ ->
      let pick_top2 () =
        if Vv_prelude.Rng.bool rng then leader else runner_up
      in
      List.map
        (fun v ->
          match policy with
          | Abandon_third ->
              if Oid.equal v leader || Oid.equal v runner_up then v
              else pick_top2 ()
          | Bandwagon ->
              if Oid.equal v leader then v
              else if Vv_prelude.Rng.bool rng then leader
              else v
          | Custom f -> f ~rng ~leader ~runner_up:(Some runner_up) v)
        inputs

let run ?(policy = Abandon_third) ?(max_sessions = 5)
    ?(protocol = Runner.Algo2_sct) ?(strategy = Strategy.Collude_second)
    ?(tie = Vv_ballot.Tie_break.default) ?(seed = 0x5e55) ~t ~f honest_inputs =
  if max_sessions < 1 then invalid_arg "Session.run: max_sessions must be >= 1";
  let rng = Vv_prelude.Rng.create seed in
  let rec go round inputs attempts =
    let outcome =
      Runner.simple ~protocol ~strategy ~tie ~seed:(Vv_prelude.Rng.bits rng)
        ~t ~f inputs
    in
    let attempts = { round; inputs; outcome } :: attempts in
    if outcome.Runner.termination then
      let decided =
        match List.filter_map Fun.id outcome.Runner.outputs with
        | v :: _ -> Some v
        | [] -> None
      in
      { attempts = List.rev attempts; decided; sessions_used = round }
    else if round >= max_sessions then
      { attempts = List.rev attempts; decided = None; sessions_used = round }
    else
      let inputs' = adjust ~tie ~rng policy inputs in
      go (round + 1) inputs' attempts
  in
  go 1 honest_inputs []
