(** Adversary strategies, as data.

    A plain enumeration so experiment specifications can name strategies
    independently of the {!Voting.Make} functor instance; each instance's
    [adversary_of] turns one into a concrete {!Vv_sim.Adversary.t} over its
    own message type. *)

(** One round of a {!Scripted} adversary.  Integers index into the live
    option set observed at trigger time (distinct honest choices, in
    option order), clamped to its length. *)
type script_action =
  | Skip  (** stay silent this round *)
  | Vote_all of int
      (** broadcast a vote for live option [i] from every Byzantine node *)
  | Vote_split of int * int
      (** equivocate: vote option [i] to even recipients, [j] to odd ones —
          point-to-point only, rejected by the engine under local broadcast *)
  | Propose_all of int  (** broadcast a forged propose for live option [i] *)
  | Vote_and_propose of int * int
      (** broadcast votes for [i] and proposes for [j] in the same round *)

type t =
  | Passive
      (** Byzantine nodes stay silent — exercises Lemma 6's claim that
          quorums are reachable from honest nodes alone. *)
  | Collude_second
      (** All Byzantine nodes vote for the honest runner-up: the worst-case
          strategy behind Lemma 2 / Theorem 3. *)
  | Collude_fixed of int  (** All Byzantine nodes vote a fixed option id. *)
  | Split_top2
      (** Equivocation: vote the leader to even-numbered recipients and the
          runner-up to odd ones. Rejected by the engine under the local
          broadcast model. *)
  | Propose_second
      (** [Collude_second] plus forged [propose] messages for the runner-up
          — attacks the decide quorum directly (Theorem 11's argument that
          [t < t+1] forged proposes cannot decide). *)
  | Random_votes of int  (** Seeded uniform votes over the observed domain. *)
  | Late_collude of int
      (** [Collude_second] delayed by the given number of rounds — the
          strong adversary's message-withholding power aimed at the wait
          windows. *)
  | Scripted of script_action list
      (** Replay the per-round actions, one per round, starting the round
          the first honest vote is observed — the enumerable adversary
          universe of the exhaustive checker. *)

val equal_action : script_action -> script_action -> bool
(** Structural equality of two actions, without polymorphic compare. *)

val script_label : script_action list -> string
(** ["scripted:"] then the actions, ["."]-separated: [-] for [Skip],
    [v1], [v0x1], [p1], [v0p1] — the adversary name of a scripted run's
    trace, and what {!pp_script} prints. *)

val pp_script_action : script_action Fmt.t
val pp_script : script_action list Fmt.t
val pp : t Fmt.t
val of_name : string -> t option
val all_names : string list
