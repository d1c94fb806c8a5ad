(* Classify one execution's outcome against a supplied validity property.

   Each cell sits in exactly one bound regime, decided statically from its
   surviving honest multiset:

   - [expected_exact]: the variant's bound (Bounds.kind via [kind_of]) is
     satisfied AND the Phase-1 substrate's own tolerance holds.  Here the
     paper promises exactness — termination, agreement, and
     tie-break-aware voting validity — for every adversary.  Because an
     in-bound run decides the strict honest plurality, exactness entails
     every property that voting validity implies in the hierarchy
     (Property.implies), so any failure against such a property is a
     [Violation].  For properties voting validity does *not* entail
     (e.g. median), nothing is promised and a miss is a [Defeated].
   - below bound, safety-guaranteed kind (Sct): the protocol may stall
     forever but must never decide against the established rule
     (Definition V.1) — a standing promise independent of the property
     under test.  A stall is [Admissible_stall] — and is exactly the
     non-exactness the lower bound predicts — while a Definition V.1
     breach is a [Violation] even below the bound.
   - below bound, Bft/Cft kinds: nothing is promised; an execution where
     exactness fails is a [Defeated] — a constructive tightness witness
     generalizing the hand-built Lemma 2 scenarios of
     lib/analysis/witness.ml — and one where the adversary failed to do
     damage is still [Exact].

   An [`Invalid_adversary] rejection is always a violation: the checker
   only enumerates scripts that are legal under the cell's communication
   model, so a rejection means the enumeration or the interpreter is
   wrong, and silently skipping it would shrink the universe the
   exhaustiveness claim quantifies over. *)

module Runner = Vv_core.Runner
module Bounds = Vv_core.Bounds
module Bb = Vv_bb.Bb
module Property = Vv_ballot.Property

type violation = { property : string; detail : string }

type class_ =
  | Exact
  | Admissible_stall
  | Defeated
  | Violation of violation

let violation_label v = "VIOLATION:" ^ v.property ^ ":" ^ v.detail

let class_label = function
  | Exact -> "exact"
  | Admissible_stall -> "stall-admissible"
  | Defeated -> "defeated"
  | Violation v -> violation_label v

let equal_class a b =
  match (a, b) with
  | Exact, Exact | Admissible_stall, Admissible_stall | Defeated, Defeated ->
      true
  | Violation p, Violation q ->
      String.equal p.property q.property && String.equal p.detail q.detail
  | (Exact | Admissible_stall | Defeated | Violation _), _ -> false

(* Which tolerance bound governs each protocol.  Algorithm 4 runs under
   the local broadcast model, where equivocation is impossible and
   Inequality (15) has the CFT shape (exp_bounds E6 checks this against
   the paper's table). *)
let kind_of = function
  | Runner.Algo1 | Runner.Algo3_incremental -> Bounds.Bft
  | Runner.Algo2_sct | Runner.Sct_incremental -> Bounds.Sct
  | Runner.Cft | Runner.Algo4_local -> Bounds.Cft

(* The substrate's own tolerance is a hypothesis of the correctness
   theorems, separate from the voting bound (a Phase-King run at n <= 4t
   can misbroadcast before the voting layer even sees a ballot). *)
let substrate_ok (cell : Space.cell) =
  (not (Space.uses_substrate cell.protocol))
  || cell.n >= Bb.min_n cell.bb ~t:cell.t

(* A cell's bound regime is fixed, and the checker asks for it once per
   execution in [classify] and twice more in [Check.aggregate], while a
   cell's executions are consecutive.  So each domain remembers the last
   cell's answer, keyed physically on the cell: a hit is the same cell
   value, and a miss (any other cell, in any order) recomputes it. *)
let bound_memo = Domain.DLS.new_key (fun () -> None)

let bound_holds (cell : Space.cell) =
  match Domain.DLS.get bound_memo with
  | Some (c, holds) when c == cell -> holds
  | Some _ | None ->
      let holds =
        Bounds.satisfied_for (kind_of cell.protocol)
          ~tie:Vv_ballot.Tie_break.default ~n:cell.n ~t:cell.t
          (Space.honest_inputs cell)
      in
      Domain.DLS.set bound_memo (Some (cell, holds));
      holds

let expected_exact cell = bound_holds cell && substrate_ok cell

let classify ?(property = Property.voting) (exec : Space.execution) outcome =
  let cell = exec.Space.cell in
  match outcome with
  | Error (`Invalid_adversary reason) ->
      Violation
        { property = property.Property.id;
          detail = "invalid-adversary: " ^ reason }
  | Ok (o : Runner.outcome) ->
      let admissible =
        Property.admissible property o.Runner.honest ~t_tol:cell.Space.t
          ~outputs:o.Runner.outputs
      in
      let exact = o.Runner.termination && o.Runner.agreement && admissible in
      (* In bound, exactness decides the strict honest plurality, which
         carries every property voting validity entails; outside that
         cone the promise does not extend to [property]. *)
      if expected_exact cell && Property.implies Property.voting property then
        if not o.Runner.termination then
          Violation { property = property.Property.id; detail = "termination" }
        else if not o.Runner.agreement then
          Violation { property = property.Property.id; detail = "agreement" }
        else if not admissible then
          Violation { property = property.Property.id; detail = "validity" }
        else Exact
      else begin
        match kind_of cell.Space.protocol with
        | Bounds.Sct ->
            (* Definition V.1 is the Sct variants' own standing promise,
               phrased over voting validity regardless of the swept
               property. *)
            if not o.Runner.safety_admissible then
              Violation
                { property = Property.voting.Property.id;
                  detail = "safety-guaranteed admissibility" }
            else if exact then Exact
            else Admissible_stall
        | Bounds.Bft | Bounds.Cft -> if exact then Exact else Defeated
      end

(* Run the engine and classify; the checker's unit of work. *)
let classify_run ?property exec =
  classify ?property exec (Runner.run_checked (Space.spec_of exec))

(* Run the engine once, classify against every property in [properties];
   the multi-validity sweep's unit of work. *)
let classify_run_sweep ~properties exec =
  let outcome = Runner.run_checked (Space.spec_of exec) in
  List.map (fun property -> classify ~property exec outcome) properties

(* Whether the execution witnesses its cell's lower bound: a below-bound
   run where the adversary (or fault) actually defeated exactness.  For
   the safety-guaranteed kind the predicted non-exactness is the stall. *)
let witnesses_tightness exec class_ =
  (* Below the *voting* bound specifically — a substrate-only shortfall
     says nothing about the paper's lower bounds. *)
  (not (bound_holds exec.Space.cell))
  &&
  match (kind_of exec.Space.cell.Space.protocol, class_) with
  | Bounds.Sct, Admissible_stall -> true
  | (Bounds.Bft | Bounds.Cft), Defeated -> true
  | _, (Exact | Admissible_stall | Defeated | Violation _) -> false
