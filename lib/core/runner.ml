(* One-stop experiment runner: build a system specification, execute the
   chosen protocol against the chosen adversary, and classify the outcome
   against every property of Section III-C. *)

open Vv_sim
module Oid = Vv_ballot.Option_id
module Validity = Vv_ballot.Validity
module Property = Vv_ballot.Property

module V_ds = Voting.Make (Vv_bb.Dolev_strong)
module V_eig = Voting.Make (Vv_bb.Eig)
module V_pk = Voting.Make (Vv_bb.Phase_king)
module V_plain = Voting.Make (Vv_bb.Plain)

type protocol =
  | Algo1  (** BFT voting, Inequality (3) *)
  | Algo2_sct  (** safety-guaranteed, Inequality (7) *)
  | Algo3_incremental  (** optimistic responsiveness, Inequality (14) *)
  | Algo4_local  (** local broadcast model, Inequality (15) *)
  | Cft  (** crash faults only; plain Phase 1 *)
  | Sct_incremental  (** Algorithm 2 with the Algorithm 3 trigger *)

let protocol_label = function
  | Algo1 -> "algo1"
  | Algo2_sct -> "algo2-sct"
  | Algo3_incremental -> "algo3-incr"
  | Algo4_local -> "algo4-local"
  | Cft -> "cft"
  | Sct_incremental -> "sct-incr"

let protocols =
  [ Algo1; Algo2_sct; Algo3_incremental; Algo4_local; Cft; Sct_incremental ]

(* A label, or one of the shorter names the CLI has always accepted. *)
let protocol_of_name s =
  match List.find_opt (fun p -> String.equal (protocol_label p) s) protocols with
  | Some p -> Some p
  | None -> (
      match s with
      | "algo2" | "sct" -> Some Algo2_sct
      | "algo3" | "incremental" -> Some Algo3_incremental
      | "algo4" | "local" -> Some Algo4_local
      | "sct-incremental" -> Some Sct_incremental
      | _ -> None)

let variant_of = function
  | Algo1 -> Variant.algo1
  | Algo2_sct -> Variant.algo2_sct
  | Algo3_incremental -> Variant.algo3_incremental
  | Algo4_local -> Variant.algo4_local
  | Cft -> Variant.cft
  | Sct_incremental -> Variant.sct_incremental

type spec = {
  n : int;
  t : int;
  inputs : Oid.t list;  (** length n; entries at Byzantine ids are ignored *)
  byzantine : Types.node_id list;
  crash : (Types.node_id * int * Types.node_id list) list;
      (** (node, crash round, recipients of its final broadcast) *)
  protocol : protocol;
  bb : Vv_bb.Bb.choice;  (** Phase-1 substrate for Algorithms 1-3 *)
  strategy : Strategy.t;
  tie : Vv_ballot.Tie_break.t;
  delay : Delay.t;
  network : Network.t;  (** chaos substrate; [Network.none] = faithful links *)
  retransmit : Retransmit.t option;
  seed : int;
  max_rounds : int;
  subject : int;
  speaker : Types.node_id;
  judgment_override : Variant.judgment option;
      (** replace the variant's local judgment condition delta_P — used by
          the Theorem 10 experiments to run SCT with delta_P < t *)
}

let spec ?(byzantine = []) ?(crash = []) ?(protocol = Algo1)
    ?(bb = Vv_bb.Bb.default) ?(strategy = Strategy.Passive)
    ?(tie = Vv_ballot.Tie_break.default) ?(delay = Delay.synchronous)
    ?(network = Network.none) ?retransmit ?(seed = 0x5eed) ?(max_rounds = 200)
    ?(subject = 1) ?(speaker = 0) ?judgment_override ~n ~t inputs =
  if List.length inputs <> n then
    invalid_arg "Runner.spec: inputs must have length n";
  {
    n;
    t;
    inputs;
    byzantine;
    crash;
    protocol;
    bb;
    strategy;
    tie;
    delay;
    network;
    retransmit;
    seed;
    max_rounds;
    subject;
    speaker;
    judgment_override;
  }

let with_seed seed (s : spec) = { s with seed }

type outcome = {
  outputs : Oid.t option list;  (** honest nodes, node-id order *)
  honest : Validity.summary;  (** under the spec's tie rule *)
  termination : bool;
  agreement : bool;
  voting_validity : bool;  (** strict form, Definition III.3 *)
  voting_validity_tb : bool;  (** tie-break-aware form *)
  strong_validity : bool;
  safety_admissible : bool;  (** Definition V.1 *)
  stalled : bool;
  rounds : int;
  honest_msgs : int;
  byz_msgs : int;
  decision_rounds : int option list;
  trace : Vv_sim.Trace.snapshot;  (** per-round structured history *)
}

let config_of (s : spec) =
  let faults = Array.make s.n Fault.Honest in
  List.iter
    (fun id ->
      if id < 0 || id >= s.n then invalid_arg "Runner: byzantine id out of range";
      faults.(id) <- Fault.Byzantine)
    s.byzantine;
  List.iter
    (fun (id, at_round, deliver_to) ->
      if id < 0 || id >= s.n then invalid_arg "Runner: crash id out of range";
      if faults.(id) <> Fault.Honest then
        invalid_arg "Runner: node both Byzantine and crash";
      faults.(id) <- Fault.Crash { at_round; deliver_to })
    s.crash;
  let comm =
    match s.protocol with
    | Algo4_local -> Types.Local_broadcast
    | Algo1 | Algo2_sct | Algo3_incremental | Cft | Sct_incremental ->
        Types.Point_to_point
  in
  Config.make ~faults ~comm ~delay:s.delay ~network:s.network
    ?retransmit:s.retransmit ~max_rounds:s.max_rounds ~seed:s.seed ~n:s.n
    ~t_max:s.t ()

(* The honest inputs of a run, summarised once for every verdict. *)
let honest_of (s : spec) cfg =
  Validity.summarize ~tie:s.tie
    (List.map (fun id -> List.nth s.inputs id) (Config.honest_ids cfg))

let outcome_of (s : spec) honest (exec : Voting.exec) =
  let outputs = exec.Voting.outputs in
  let t_tol = s.t in
  (* Definition V.1 is tie-break-aware voting validity. *)
  let voting_tb = Property.admissible Property.voting honest ~t_tol ~outputs in
  {
    outputs;
    honest;
    termination = Validity.termination ~outputs;
    agreement = Validity.agreement ~outputs;
    voting_validity =
      Property.admissible Property.voting_strict honest ~t_tol ~outputs;
    voting_validity_tb = voting_tb;
    strong_validity = Property.admissible Property.strong honest ~t_tol ~outputs;
    safety_admissible = voting_tb;
    stalled = exec.Voting.stalled;
    rounds = exec.Voting.rounds;
    honest_msgs = exec.Voting.honest_msgs;
    byz_msgs = exec.Voting.byz_msgs;
    decision_rounds = exec.Voting.decision_rounds;
    trace = exec.Voting.trace;
  }

(* The Voting instance a specification runs on, as its two entry points
   [(execute_checked, execute_scripted)]. *)
let instance (s : spec) =
  match s.protocol with
  | Algo4_local | Cft -> (V_plain.execute_checked, V_plain.execute_scripted)
  | Algo1 | Algo2_sct | Algo3_incremental | Sct_incremental -> (
      match s.bb with
      | Vv_bb.Bb.Dolev_strong -> (V_ds.execute_checked, V_ds.execute_scripted)
      | Vv_bb.Bb.Eig -> (V_eig.execute_checked, V_eig.execute_scripted)
      | Vv_bb.Bb.Phase_king -> (V_pk.execute_checked, V_pk.execute_scripted))

let spec_variant (s : spec) =
  let variant = Variant.with_tie s.tie (variant_of s.protocol) in
  match s.judgment_override with
  | None -> variant
  | Some judgment -> { variant with Variant.judgment }

let run_checked_unshared (s : spec) =
  let cfg = config_of s in
  let execute_checked, _ = instance s in
  Result.map (outcome_of s (honest_of s cfg))
    (execute_checked cfg ~variant:(spec_variant s) ~speaker:s.speaker
       ~subject:s.subject
       ~preferences:(fun id -> List.nth s.inputs id)
       ~strategy:s.strategy)

(* Whether two specifications run the same prefix for every script:
   every field but the strategy agrees.  The record pattern is exhaustive,
   so a new spec field does not compile here until it is compared; the
   closure-carrying fields (a custom tie rule, scheduled delays) are
   compared physically. *)
let same_prefix (a : spec) (b : spec) =
  let { n; t; inputs; byzantine; crash; protocol; bb; strategy = _; tie;
        delay; network; retransmit; seed; max_rounds; subject; speaker;
        judgment_override } =
    a
  in
  n = b.n && t = b.t
  && List.equal Oid.equal inputs b.inputs
  && List.equal Int.equal byzantine b.byzantine
  && List.equal
       (fun (id, r, d) (id', r', d') ->
         id = id' && r = r' && List.equal Int.equal d d')
       crash b.crash
  && protocol = b.protocol && bb = b.bb && tie == b.tie && delay == b.delay
  && network = b.network && retransmit = b.retransmit && seed = b.seed
  && max_rounds = b.max_rounds && subject = b.subject && speaker = b.speaker
  && judgment_override = b.judgment_override

(* One entry per domain: the last scripted specification, its honest
   inputs' summary, and its checkpoints (Voting.execute_scripted: the
   shared prefix, and one checkpoint per depth along the last script).
   The checker enumerates the scripts of a cell consecutively, so each
   cell runs its prefix and summarises its honest inputs once per domain;
   domain-local storage, as [Auth.secret_cache] uses, keeps parallel
   workers apart. *)
let prefix_memo = Domain.DLS.new_key (fun () -> None)

let shared_prefix (s : spec) =
  match Domain.DLS.get prefix_memo with
  | Some (key, honest, finish) when same_prefix key s -> (honest, finish)
  | Some _ | None ->
      let cfg = config_of s in
      let _, execute_scripted = instance s in
      let finish =
        execute_scripted cfg ~variant:(spec_variant s) ~speaker:s.speaker
          ~subject:s.subject ~preferences:(fun id -> List.nth s.inputs id)
      in
      let honest = honest_of s cfg in
      Domain.DLS.set prefix_memo (Some (s, honest, finish));
      (honest, finish)

let run_checked (s : spec) =
  match s.strategy with
  | Strategy.Scripted actions ->
      let honest, finish = shared_prefix s in
      Result.map (outcome_of s honest) (finish actions)
  | Strategy.Passive | Strategy.Collude_second | Strategy.Collude_fixed _
  | Strategy.Split_top2 | Strategy.Propose_second | Strategy.Random_votes _
  | Strategy.Late_collude _ ->
      run_checked_unshared s

let run (s : spec) =
  match run_checked s with
  | Ok o -> o
  | Error (`Invalid_adversary reason) ->
      raise (Vv_sim.Engine.Invalid_adversary reason)

(* Convenience: the paper's standard setup — honest inputs listed first,
   the last [f] nodes Byzantine, speaker honest node 0. *)
let simple_spec ?(protocol = Algo1) ?(strategy = Strategy.Collude_second)
    ?(bb = Vv_bb.Bb.default) ?(tie = Vv_ballot.Tie_break.default)
    ?(delay = Delay.synchronous) ?(network = Network.none) ?retransmit
    ?(seed = 0x5eed) ?(max_rounds = 200) ~t ~f honest_inputs =
  let ng = List.length honest_inputs in
  let n = ng + f in
  let byzantine = List.init f (fun i -> ng + i) in
  (* Byzantine slots still need placeholder inputs. *)
  let filler = match honest_inputs with x :: _ -> x | [] -> Oid.of_int 0 in
  let inputs = honest_inputs @ List.init f (fun _ -> filler) in
  spec ~byzantine ~protocol ~bb ~strategy ~tie ~delay ~network ?retransmit
    ~seed ~max_rounds ~n ~t inputs

let simple ?protocol ?strategy ?bb ?tie ?delay ?network ?retransmit ?seed
    ?max_rounds ~t ~f honest_inputs =
  run
    (simple_spec ?protocol ?strategy ?bb ?tie ?delay ?network ?retransmit
       ?seed ?max_rounds ~t ~f honest_inputs)
