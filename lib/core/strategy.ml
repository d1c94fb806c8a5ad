(* Adversary strategies for the voting protocols, as data.

   The strategies are defined here as a plain enumeration so experiment
   specifications can name them independently of the Voting functor
   instance; Voting.Make turns a strategy into a concrete
   Vv_sim.Adversary.t over its own message type. *)

(* One round of a scripted adversary, as data.  Integers index into the
   live option set the adversary observed at trigger time (the distinct
   honest choices, in option order), clamped to its length — so scripts
   enumerated for d options stay meaningful when replayed against
   executions that happen to expose fewer. *)
type script_action =
  | Skip  (** stay silent this round *)
  | Vote_all of int  (** broadcast a vote for option [i] from every Byzantine node *)
  | Vote_split of int * int
      (** equivocate: vote option [i] to even recipients, [j] to odd ones
          (point-to-point only; illegal under local broadcast) *)
  | Propose_all of int  (** broadcast a forged propose for option [i] *)
  | Vote_and_propose of int * int
      (** broadcast votes for [i] and proposes for [j] in the same round *)

type t =
  | Passive
      (** Byzantine nodes stay silent — stresses that quorums are reachable
          from honest nodes alone (Lemma 6). *)
  | Collude_second
      (** All Byzantine nodes vote for the honest runner-up B — the
          worst-case strategy behind Lemma 2 / Theorem 3. *)
  | Collude_fixed of int
      (** All Byzantine nodes vote for a fixed option id. *)
  | Split_top2
      (** Equivocation: each Byzantine node votes A to even-numbered nodes
          and B to odd ones (point-to-point only). *)
  | Propose_second
      (** Collude_second, plus matching [propose B] messages — attacks the
          decide quorum directly (max t < t+1 forged proposes, Thm 11). *)
  | Random_votes of int
      (** Independent uniform votes over the observed option domain, seeded
          for reproducibility. *)
  | Late_collude of int
      (** Collude_second, but withhold the Byzantine votes for the given
          number of rounds after observing the honest ballot — exercises
          the strong adversary's message-delaying power against the
          protocols' wait windows. *)
  | Scripted of script_action list
      (** Replay the per-round actions, starting the round the first honest
          vote is observed — the enumerable adversary universe of the
          exhaustive checker (Vv_check). *)

(* Labels are built without Format: the checker names one trace per
   script, tens of thousands per sweep. *)
let action_label = function
  | Skip -> "-"
  | Vote_all i -> "v" ^ string_of_int i
  | Vote_split (i, j) -> "v" ^ string_of_int i ^ "x" ^ string_of_int j
  | Propose_all i -> "p" ^ string_of_int i
  | Vote_and_propose (i, j) -> "v" ^ string_of_int i ^ "p" ^ string_of_int j

let script_label actions =
  "scripted:" ^ String.concat "." (List.map action_label actions)

let pp_script_action ppf a = Fmt.string ppf (action_label a)
let pp_script ppf actions = Fmt.string ppf (script_label actions)

let pp ppf = function
  | Passive -> Fmt.string ppf "passive"
  | Collude_second -> Fmt.string ppf "collude-second"
  | Collude_fixed v -> Fmt.pf ppf "collude-fixed:%d" v
  | Split_top2 -> Fmt.string ppf "split-top2"
  | Propose_second -> Fmt.string ppf "propose-second"
  | Random_votes s -> Fmt.pf ppf "random:%d" s
  | Late_collude d -> Fmt.pf ppf "late-collude:%d" d
  | Scripted actions -> pp_script ppf actions

let of_name = function
  | "passive" -> Some Passive
  | "collude-second" -> Some Collude_second
  | "split-top2" -> Some Split_top2
  | "propose-second" -> Some Propose_second
  | "random" -> Some (Random_votes 7)
  | "late-collude" -> Some (Late_collude 3)
  | _ -> None

let all_names =
  [
    "passive"; "collude-second"; "split-top2"; "propose-second"; "random";
    "late-collude";
  ]
