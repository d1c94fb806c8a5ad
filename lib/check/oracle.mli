(** Outcome classification against a supplied validity property.

    Above its bound a variant must be exact for every adversary — and,
    because exactness decides the strict honest plurality, the promise
    extends to every property voting validity implies
    ({!Vv_ballot.Property.implies}); any failure there is a violation
    tagged with the property's id.  Below the bound, safety-guaranteed
    variants may stall but never decide against Definition V.1, and the
    other kinds' defeats are constructive tightness witnesses.  The
    default property is {!Vv_ballot.Property.voting}, under which the
    classification is identical to the historical hard-coded oracle. *)

type violation = {
  property : string;  (** {!Vv_ballot.Property.id} of the violated property *)
  detail : string;  (** which clause failed (termination/agreement/...) *)
}

type class_ =
  | Exact  (** terminated, agreed, admissible under the swept property *)
  | Admissible_stall
      (** below-bound safety-guaranteed stall — the predicted
          non-exactness, safety intact (Definition V.1) *)
  | Defeated
      (** exactness failure where nothing was promised — below-bound
          Bft/Cft, or a property outside voting validity's cone *)
  | Violation of violation  (** a promised guarantee broken *)

val violation_label : violation -> string
(** ["VIOLATION:<property>:<detail>"]. *)

val class_label : class_ -> string
val equal_class : class_ -> class_ -> bool

val kind_of : Vv_core.Runner.protocol -> Vv_core.Bounds.kind
(** Which tolerance bound governs the protocol: Algorithms 1/3 are Bft,
    the safety-guaranteed pair is Sct, and CFT and Algorithm 4 (local
    broadcast, Inequality 15) have the Cft shape. *)

val substrate_ok : Space.cell -> bool
(** Whether the Phase-1 substrate's own tolerance holds — a hypothesis of
    the correctness theorems separate from the voting bound. *)

val bound_holds : Space.cell -> bool
(** The variant's voting bound against the cell's surviving honest
    multiset. *)

val expected_exact : Space.cell -> bool
(** [bound_holds && substrate_ok]: the regime where the paper promises
    exactness for every adversary. *)

val classify :
  ?property:Vv_ballot.Property.t ->
  Space.execution ->
  (Vv_core.Runner.outcome, [ `Invalid_adversary of string ]) result ->
  class_
(** Classify one outcome against [property] (default
    {!Vv_ballot.Property.voting}), judged on the outcome's honest-input
    summary and so under the run's tie rule. An [`Invalid_adversary]
    rejection is always a violation: the checker only enumerates scripts
    legal under the cell's communication model, so a rejection is a
    checker or interpreter bug and must not silently shrink the
    universe. *)

val classify_run : ?property:Vv_ballot.Property.t -> Space.execution -> class_
(** Run the engine on [Space.spec_of] and classify — the checker's unit
    of work; domain-safe. *)

val classify_run_sweep :
  properties:Vv_ballot.Property.t list -> Space.execution -> class_ list
(** Run the engine once and classify the single outcome against every
    property, in order — the multi-validity sweep's unit of work. *)

val witnesses_tightness : Space.execution -> class_ -> bool
(** Whether this run witnesses its cell's lower bound: strictly below the
    voting bound and actually defeated ([Defeated], or the predicted
    [Admissible_stall] for the safety-guaranteed kind). *)
