(** Executable forms of the paper's correctness properties (Section III-C).

    Conventions: [honest_inputs] lists the node preferences of the
    non-faulty nodes only; [outputs] lists, per honest node, its decision
    ([None] = has not decided / did not terminate). *)

val honest_tally : Option_id.t list -> Tally.t

val voting_preference :
  honest_inputs:Option_id.t list -> Option_id.t -> Option_id.t -> bool
(** Definition III.1: [A > B] iff strictly more non-faulty nodes support
    [A] than [B]. *)

val honest_plurality :
  tie:Tie_break.t -> honest_inputs:Option_id.t list -> Option_id.t option
(** The plurality of non-faulty inputs, ties resolved by the rule. *)

val honest_gap :
  tie:Tie_break.t -> honest_inputs:Option_id.t list -> int option
(** [A_G - B_G]. *)

val has_strict_plurality : honest_inputs:Option_id.t list -> bool
(** True when one option strictly beats all others among honest inputs. *)

(** {1 Honest-input summary}

    What the plurality-based predicates read from the honest inputs,
    computed with one tally: a caller that judges many output vectors
    against one honest multiset (a checker cell) summarises it once and
    uses the [_of] forms, which equal the predicates below. *)

type summary = private {
  inputs : Option_id.t list;  (** the honest inputs, as given *)
  plurality : Option_id.t option;  (** {!honest_plurality} *)
  strict : bool;  (** {!has_strict_plurality} *)
}

val summarize : tie:Tie_break.t -> Option_id.t list -> summary

val voting_validity_of : summary -> outputs:Option_id.t option list -> bool
(** {!voting_validity}. *)

val voting_validity_tb_of : summary -> outputs:Option_id.t option list -> bool
(** {!voting_validity_tb}. *)

val strong_validity_of : summary -> outputs:Option_id.t option list -> bool
(** {!strong_validity}. *)

val safety_guaranteed_admissible_of :
  summary -> outputs:Option_id.t option list -> bool
(** {!safety_guaranteed_admissible}. *)

(** {1 Predicates} *)

val voting_validity :
  tie:Tie_break.t ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Definition III.3, strict form: when a strict honest plurality [A]
    exists, every decided output must be [A]. Vacuously true otherwise;
    undecided nodes never violate validity. *)

val voting_validity_tb :
  tie:Tie_break.t ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Tie-break-aware form: the required output is the tie-break winner even
    when honest counts tie. *)

val strong_validity :
  honest_inputs:Option_id.t list -> outputs:Option_id.t option list -> bool
(** Neiger's strong validity: every decided output is some honest input. *)

val agreement : outputs:Option_id.t option list -> bool
(** All decided outputs are identical. *)

val termination : outputs:Option_id.t option list -> bool
(** Every honest node decided. *)

val integrity_allows : view:Tally.t -> output:Option_id.t -> bool
(** Definition III.2: false when some other option in [view] has at least as
    many votes as [output]. *)

val safety_guaranteed_admissible :
  tie:Tie_break.t ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Definition V.1: decided outputs (if any) equal the honest plurality. *)

val differential_validity :
  delta:int ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Fitzi-Garay delta-differential validity (Section II): no option beats a
    decided output by more than [delta] honest votes. Raises
    [Invalid_argument] on negative [delta]. *)
