(** Validity properties as first-class values.

    Following Civit et al., "On the Validity of Consensus" (arXiv
    2301.04920), a validity property is the parameter that decides
    solvability — so it is data here, not code baked into the checker:
    an id, an admissibility predicate over (honest-input summary,
    outputs), and the hierarchy edges to the properties it entails. Each
    instance is the only definition of its property. The runners
    ({!Vv_core.Runner}), the oracle ({!Vv_check.Oracle}), the baselines
    and the campaigns all judge runs through values of this type.

    Conventions match {!Validity}: the summary is of the non-faulty
    preferences only ({!Validity.summarize}, under the run's tie-break
    rule); [outputs] lists, per honest node, its decision ([None] =
    undecided, which never violates validity). [t_tol] is the
    fault-tolerance budget [t] of the configuration under test — only
    the median instance reads it. *)

type t = {
  id : string;  (** stable name, used in CLI flags and violation labels *)
  description : string;
  admissible :
    Validity.summary -> t_tol:int -> outputs:Option_id.t option list -> bool;
      (** does this (inputs, outputs) pair satisfy the property? *)
  stronger_than : string list;
      (** ids of properties this one entails (direct edges; {!implies}
          takes the reflexive-transitive closure) *)
}

val id : t -> string
val admissible :
  t -> Validity.summary -> t_tol:int -> outputs:Option_id.t option list -> bool

val pp : t Fmt.t
(** Prints the id. *)

val equal : t -> t -> bool
(** Id equality. *)

val voting : t
(** Tie-break-aware voting validity (Definition III.3): every decided
    output is the honest plurality under the summary's tie-break rule.
    It is also Definition V.1, safety-guaranteed admissibility. *)

val voting_strict : t
(** Strict voting validity (Definition III.3 without tie-break): when a
    strict honest plurality exists, every decided output is it; vacuous
    otherwise. *)

val strong : t
(** Neiger's strong validity: every decided output is an honest input. *)

val weak : t
(** Unanimity validity: a unanimous honest electorate forces its value. *)

val interval : t
(** Melnyk-Wattenhofer interval validity over options read as integers:
    decided outputs lie within [min, max] of the honest inputs. *)

val median : t
(** Stolz-Wattenhofer median validity over options read as integers:
    decided outputs lie within [t_tol] positions of the median of the
    sorted honest multiset. *)

val all : t list
(** Every built-in instance, in CLI/report order:
    voting, voting-strict, strong, weak, interval, median. *)

val names : string list
(** Ids of {!all}, same order. *)

val find : string -> t option
(** Look up a built-in instance by id. *)

val implies : t -> t -> bool
(** [implies p q]: does [p] entail [q] in the validity hierarchy?
    Reflexive-transitive closure of [stronger_than]. *)

(** {1 Judging a run} *)

type verdict =
  | Exact  (** agreed, admissible, and every honest node decided *)
  | Stall  (** agreed and admissible, but some honest node undecided *)
  | Violation  (** decided outputs disagree or are inadmissible *)

val verdict_label : verdict -> string
(** ["exact"], ["stall"] or ["violation"]. *)

val judge :
  t -> Validity.summary -> t_tol:int -> outputs:Option_id.t option list ->
  verdict
(** [judge p summary ~t_tol ~outputs]: {!Violation} if the decided
    outputs disagree or are not [p]-admissible (safety is judged even on
    a partial run), otherwise {!Stall} if some honest node is undecided,
    otherwise {!Exact}. *)
