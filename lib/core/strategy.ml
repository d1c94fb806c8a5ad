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

let equal_action a b =
  match (a, b) with
  | Skip, Skip -> true
  | Vote_all i, Vote_all j | Propose_all i, Propose_all j -> Int.equal i j
  | Vote_split (i, j), Vote_split (k, l)
  | Vote_and_propose (i, j), Vote_and_propose (k, l) ->
      Int.equal i k && Int.equal j l
  | (Skip | Vote_all _ | Vote_split _ | Propose_all _ | Vote_and_propose _), _
    ->
      false

let build_label = function
  | Skip -> "-"
  | Vote_all i -> "v" ^ string_of_int i
  | Vote_split (i, j) -> "v" ^ string_of_int i ^ "x" ^ string_of_int j
  | Propose_all i -> "p" ^ string_of_int i
  | Vote_and_propose (i, j) -> "v" ^ string_of_int i ^ "p" ^ string_of_int j

(* Labels are built without Format, and the checker's are not built per
   script at all: it names one trace per script, tens of thousands per
   sweep, from alphabets over at most three options.  So the labels of
   indices below [small] come from tables built once ([string_of_int] is
   a C sprintf per call); other indices are built as above. *)
let small = 4
let is_small i = i >= 0 && i < small
let singles f = Array.init small (fun i -> build_label (f i))

let pairs f =
  Array.init (small * small) (fun k ->
      build_label (f (k / small) (k mod small)))

let vote_labels = singles (fun i -> Vote_all i)
let propose_labels = singles (fun i -> Propose_all i)
let split_labels = pairs (fun i j -> Vote_split (i, j))
let vote_propose_labels = pairs (fun i j -> Vote_and_propose (i, j))

let action_label a =
  match a with
  | Skip -> "-"
  | Vote_all i when is_small i -> vote_labels.(i)
  | Propose_all i when is_small i -> propose_labels.(i)
  | Vote_split (i, j) when is_small i && is_small j ->
      split_labels.((i * small) + j)
  | Vote_and_propose (i, j) when is_small i && is_small j ->
      vote_propose_labels.((i * small) + j)
  | Vote_all _ | Propose_all _ | Vote_split _ | Vote_and_propose _ ->
      build_label a

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
