(** Per-node fault plans (Section III-B1).

    Crash-faulty nodes run the honest protocol until their crash round, then
    deliver that round's messages only to a chosen subset and fall silent —
    the mid-broadcast crash behind Lemma 4's [X_i <> X_G]. *)

type t =
  | Honest
  | Byzantine
  | Crash of { at_round : int; deliver_to : Types.node_id list }

val is_byzantine : t -> bool
val is_honest : t -> bool

val delivers : t -> round:int -> dst:Types.node_id -> bool
(** Whether a message sent in [round] reaches [dst] under this plan. *)

type compiled
(** A plan specialised to a system size: the crash [deliver_to] list
    precomputed as a bool array keyed by node id, making the engine's
    per-delivery check O(1). Built once by {!Config.make}. *)

val compile : n:int -> t -> compiled
(** Raises [Invalid_argument] when a [deliver_to] id is outside [0, n). *)

val compiled_delivers : compiled -> round:int -> dst:Types.node_id -> bool
(** Agrees with {!delivers} on every ([round], [dst]) for the plan it was
    compiled from (pinned by a qcheck property in the test suite). *)

val pp : t Fmt.t
