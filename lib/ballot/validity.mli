(** Executable forms of the paper's correctness properties (Section III-C)
    other than its validity properties — preference, integrity,
    agreement, termination — plus Fitzi-Garay delta-differential
    validity, and the honest-input summary the validity properties read:
    voting validity (Definition III.3), safety-guaranteed admissibility
    (Definition V.1) and the others are {!Property} instances over
    {!summary}.

    Conventions: [honest_inputs] lists the node preferences of the
    non-faulty nodes only; [outputs] lists, per honest node, its decision
    ([None] = has not decided / did not terminate). *)

val voting_preference :
  honest_inputs:Option_id.t list -> Option_id.t -> Option_id.t -> bool
(** Definition III.1: [A > B] iff strictly more non-faulty nodes support
    [A] than [B]. *)

val honest_plurality :
  tie:Tie_break.t -> honest_inputs:Option_id.t list -> Option_id.t option
(** The plurality of non-faulty inputs, ties resolved by the rule. *)

val has_strict_plurality : honest_inputs:Option_id.t list -> bool
(** True when one option strictly beats all others among honest inputs. *)

(** {1 Honest-input summary}

    What the validity properties read from the honest inputs, computed
    with one tally: a caller that judges many output vectors against one
    honest multiset (a checker cell) summarises it once. *)

type summary = private {
  inputs : Option_id.t list;  (** the honest inputs, as given *)
  plurality : Option_id.t option;  (** {!honest_plurality} *)
  strict : bool;  (** {!has_strict_plurality} *)
}

val summarize : tie:Tie_break.t -> Option_id.t list -> summary

(** {1 Predicates} *)

val agreement : outputs:Option_id.t option list -> bool
(** All decided outputs are identical. *)

val termination : outputs:Option_id.t option list -> bool
(** Every honest node decided. *)

val integrity_allows : view:Tally.t -> output:Option_id.t -> bool
(** Definition III.2: false when some other option in [view] has at least as
    many votes as [output]. *)

val differential_validity :
  delta:int ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Fitzi-Garay delta-differential validity (Section II): no option beats a
    decided output by more than [delta] honest votes. Raises
    [Invalid_argument] on negative [delta]. *)
