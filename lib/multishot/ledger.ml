(* Multi-shot voting: the slot of a ledger of repeated single-shot
   instances.

   The paper's protocols are single-shot ("thus not yet directly
   applicable in some distributed scenarios" — Section VIII); this module
   packages the future-work direction it sketches: a sequence of voting
   slots, each deciding one subject, with

   - round-robin speaker rotation: a Byzantine or crashed speaker stalls
     its slot, and the slot is retried under the next speaker;
   - optional electorate adjustment between retries (the Section V-B
     remedy, via Vv_core.Session policies);
   - per-slot property classification (every committed slot carries its
     validity verdict).

   The Byzantine set persists across slots (the same adversary keeps
   attacking).  This module decides one slot ([compute]) and serialises
   it; {!Engine} is the ledger that holds them.

   Slots are *independent*: every random draw a slot consumes comes from
   seeds derived as [Rng.derive (Rng.derive cfg.seed index) attempt], and
   the slot's first speaker is [index mod n].  Nothing about a slot
   depends on how many attempts earlier slots burned — which is what lets
   {!Engine} shard and pipeline slots across domains while its log stays
   byte-identical at every [jobs].  (The original implementation drew
   each attempt's seed from one shared RNG stream and rotated one shared
   speaker cursor, silently coupling every slot to its predecessors'
   retry history.) *)

module Oid = Vv_ballot.Option_id
module Rng = Vv_prelude.Rng
module Json = Vv_prelude.Json
module Runner = Vv_core.Runner

type retry =
  | No_retry  (** a stalled slot is recorded as skipped *)
  | Rotate_speaker of int
      (** retry under the next speaker, up to the given attempts *)
  | Rotate_and_adjust of Vv_core.Session.policy * int
      (** rotate and also apply an electorate adjustment between attempts *)

type config = {
  n : int;
  t : int;
  byzantine : Vv_sim.Types.node_id list;
  crash : (Vv_sim.Types.node_id * int * Vv_sim.Types.node_id list) list;
      (** per-slot crash plans: these nodes crash in *every* attempt at
          the given round (e.g. an unreliable host) *)
  protocol : Runner.protocol;
  strategy : Vv_core.Strategy.t;
  bb : Vv_bb.Bb.choice;
  tie : Vv_ballot.Tie_break.t;
  retry : retry;
  seed : int;
}

let config ?(byzantine = []) ?(crash = []) ?(protocol = Runner.Algo2_sct)
    ?(strategy = Vv_core.Strategy.Collude_second) ?(bb = Vv_bb.Bb.default)
    ?(tie = Vv_ballot.Tie_break.default)
    ?(retry = Rotate_speaker 4) ?(seed = 0x1ed9) ~n ~t () =
  if n <= 0 then invalid_arg "Ledger.config: n must be positive";
  List.iter
    (fun id ->
      if id < 0 || id >= n then
        invalid_arg "Ledger.config: byzantine id out of range")
    byzantine;
  List.iter
    (fun (id, _, _) ->
      if id < 0 || id >= n then
        invalid_arg "Ledger.config: crash id out of range")
    crash;
  { n; t; byzantine; crash; protocol; strategy; bb; tie; retry; seed }

type slot = {
  index : int;
  subject : int;
  decision : Oid.t option;  (** [None] = skipped after exhausting retries *)
  speaker : Vv_sim.Types.node_id;  (** speaker of the deciding attempt *)
  attempts : int;
  valid : bool;  (** tie-break-aware voting validity of the final attempt *)
  rounds_total : int;  (** simulation rounds summed over attempts *)
}

let max_attempts cfg =
  match cfg.retry with
  | No_retry -> 1
  | Rotate_speaker k | Rotate_and_adjust (_, k) ->
      if k < 1 then invalid_arg "Ledger: retry attempts must be >= 1" else k

(* Decide one slot as a pure function of (config, index, subject, inputs):
   run attempts under rotating speakers until one terminates or the retry
   budget is exhausted.  Attempt [k] (from 1) speaks as
   [(speaker_base + k - 1) mod n] under seed [derive (derive seed index) k];
   the adjustment policy's draws come from the reserved attempt-0 child
   stream.  Domain-safe: no shared mutable state. *)
let compute cfg ?speaker_base ~index ~subject inputs =
  if List.length inputs <> cfg.n then
    invalid_arg "Ledger.compute: inputs must have length n";
  if index < 0 then invalid_arg "Ledger.compute: negative index";
  let base =
    match speaker_base with
    | Some s ->
        if s < 0 then invalid_arg "Ledger.compute: negative speaker_base"
        else s mod cfg.n
    | None -> index mod cfg.n
  in
  let budget = max_attempts cfg in
  let slot_seed = Rng.derive cfg.seed index in
  (* Attempt seeds use children 1.., so child 0 is free for the policy. *)
  let adjust_rng = Rng.create (Rng.derive slot_seed 0) in
  let rec attempt k inputs rounds_acc =
    let speaker = (base + k - 1) mod cfg.n in
    let outcome =
      Runner.run
        (Runner.spec ~byzantine:cfg.byzantine ~crash:cfg.crash
           ~protocol:cfg.protocol ~bb:cfg.bb ~strategy:cfg.strategy
           ~tie:cfg.tie ~seed:(Rng.derive slot_seed k) ~subject ~speaker
           ~n:cfg.n ~t:cfg.t inputs)
    in
    let rounds_acc = rounds_acc + outcome.Runner.rounds in
    if outcome.Runner.termination then
      let decision =
        match List.filter_map Fun.id outcome.Runner.outputs with
        | v :: _ -> Some v
        | [] -> None
      in
      {
        index;
        subject;
        decision;
        speaker;
        attempts = k;
        valid = outcome.Runner.voting_validity_tb;
        rounds_total = rounds_acc;
      }
    else if k >= budget then
      {
        index;
        subject;
        decision = None;
        speaker;
        attempts = k;
        valid = true;  (* nothing decided, nothing violated *)
        rounds_total = rounds_acc;
      }
    else
      let inputs =
        match cfg.retry with
        | Rotate_and_adjust (policy, _) ->
            (* Adjust honest entries only; Byzantine slots are ignored by
               the runner anyway. *)
            Vv_core.Session.adjust ~tie:cfg.tie ~rng:adjust_rng policy inputs
        | No_retry | Rotate_speaker _ -> inputs
      in
      attempt (k + 1) inputs rounds_acc
  in
  attempt 1 inputs 0

(* --- serialisation (the serve daemon's wire format and decision log) --- *)

let slot_to_json s =
  Json.Obj
    [
      ("index", Json.Int s.index);
      ("subject", Json.Int s.subject);
      ("decision", Json.of_int_option (Option.map Oid.to_int s.decision));
      ("speaker", Json.Int s.speaker);
      ("attempts", Json.Int s.attempts);
      ("valid", Json.Bool s.valid);
      ("rounds_total", Json.Int s.rounds_total);
    ]

exception Bad_slot of string

let int_field fields key =
  match Json.member key fields with
  | Some (Json.Int i) -> i
  | _ ->
      raise_notrace
        (Bad_slot (Printf.sprintf "slot: missing int field %S" key))

(* Fields are read in record order, so the first bad one names the
   error. *)
let slot_of_json = function
  | Json.Obj fields -> (
      match
        let index = int_field fields "index" in
        let subject = int_field fields "subject" in
        let decision =
          match Json.member "decision" fields with
          | Some Json.Null -> None
          | Some (Json.Int i) when i >= 0 -> Some (Oid.of_int i)
          | _ ->
              raise_notrace
                (Bad_slot "slot: decision must be a non-negative int or null")
        in
        let speaker = int_field fields "speaker" in
        let attempts = int_field fields "attempts" in
        let valid =
          match Json.member "valid" fields with
          | Some (Json.Bool b) -> b
          | _ -> raise_notrace (Bad_slot "slot: missing bool field \"valid\"")
        in
        let rounds_total = int_field fields "rounds_total" in
        { index; subject; decision; speaker; attempts; valid; rounds_total }
      with
      | s -> Ok s
      | exception Bad_slot msg -> Error msg)
  | _ -> Error "slot: expected an object"

let pp_slot ppf s =
  Fmt.pf ppf "slot %d: subject=%d %a (speaker %d, %d attempt%s, %d rounds)"
    s.index s.subject
    (fun ppf -> function
      | Some v -> Fmt.pf ppf "decided %a%s" Oid.pp v
                    (if s.valid then "" else " [INVALID]")
      | None -> Fmt.string ppf "skipped")
    s.decision s.speaker s.attempts
    (if s.attempts = 1 then "" else "s")
    s.rounds_total
