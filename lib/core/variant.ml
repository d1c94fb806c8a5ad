(* Protocol variants: Algorithms 1-4, the CFT protocol and approval
   voting share one state machine differing only in three knobs (plus
   the Phase-1 substrate and communication model, chosen at
   instantiation / configuration time):

   - the local judgment condition delta_P  (Alg. 1/3/4: 0; Alg. 2: t),
   - the decide quorum                     (Alg. 1/3/4: N - t; Alg. 2: t+1),
   - how Phase 3 triggers                  (wait 2*delta_t vs incremental). *)

type judgment =
  | Delta_zero
  | Delta_t
  | Delta_custom of int
      (** for impossibility experiments around Theorem 10 (delta_P < t) *)

type quorum = N_minus_t | T_plus_1

type propose_mode =
  | After_wait  (** Algorithm 1 Line 11: wait 2 delta_t after t+1 votes *)
  | Incremental  (** Algorithm 3: propose as soon as Inequality (14) fires *)

type t = {
  judgment : judgment;
  quorum : quorum;
  propose : propose_mode;
  tie : Vv_ballot.Tie_break.t;
}

let v judgment quorum propose =
  { judgment; quorum; propose; tie = Vv_ballot.Tie_break.default }

let algo1 = v Delta_zero N_minus_t After_wait
let algo2_sct = v Delta_t T_plus_1 After_wait
let algo3_incremental = v Delta_zero N_minus_t Incremental
let algo4_local = v Delta_zero N_minus_t After_wait
let cft = v Delta_zero N_minus_t After_wait
let sct_incremental = v Delta_t T_plus_1 Incremental

let delta_p t ~tolerance =
  match t.judgment with
  | Delta_zero -> 0
  | Delta_t -> tolerance
  | Delta_custom d -> d

let quorum_size t ~n ~tolerance =
  match t.quorum with N_minus_t -> n - tolerance | T_plus_1 -> tolerance + 1

let with_tie tie t = { t with tie }
