(** Protocol variants: the knobs distinguishing Algorithms 1-4 and CFT.

    All five protocols, and approval voting ({!Approval}: Algorithm 1's
    knobs with a custom [delta_P]), share one state machine
    ({!Voting.Make}); a variant fixes the local judgment condition
    [delta_P], the decide quorum, and the Phase-3 trigger. The Phase-1
    substrate and communication model are chosen at
    instantiation/configuration time. *)

type judgment =
  | Delta_zero  (** Algorithms 1, 3, 4 and CFT *)
  | Delta_t  (** Algorithm 2 (safety-guaranteed), per Theorem 10 *)
  | Delta_custom of int
      (** for impossibility experiments around Theorem 10 ([delta_P < t]) *)

type quorum =
  | N_minus_t  (** Algorithm 1 Line 16 *)
  | T_plus_1  (** Algorithm 2 Line 22: one honest propose suffices *)

type propose_mode =
  | After_wait  (** Algorithm 1 Line 11: wait [2 delta_t] after t+1 votes *)
  | Incremental  (** Algorithm 3: propose as soon as Inequality (14) fires *)

type t = {
  judgment : judgment;
  quorum : quorum;
  propose : propose_mode;
  tie : Vv_ballot.Tie_break.t;
}

val algo1 : t
val algo2_sct : t
val algo3_incremental : t
val algo4_local : t
(** Same knobs as Algorithm 1; the difference (plain Phase 1, local
    broadcast) is applied by {!Runner}. *)

val cft : t
val sct_incremental : t
(** Algorithm 2 with the Algorithm 3 trigger (Section VII-A notes the SCT
    protocol "can also be easily modified using delta_P = t"). *)

val delta_p : t -> tolerance:int -> int
val quorum_size : t -> n:int -> tolerance:int -> int
val with_tie : Vv_ballot.Tie_break.t -> t -> t
