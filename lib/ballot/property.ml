(* Validity as a first-class value (after Civit et al., "On the Validity
   of Consensus", arXiv 2301.04920): a property is data — an id, an
   admissibility predicate over (honest-input summary, outputs), and the
   hierarchy edges to the properties it entails — so the checker's
   oracle, the runners, the baselines and the campaigns can all
   quantify over *which* validity they are asked about instead of
   hard-coding the paper's voting validity.

   Each instance is the only definition of its property: the two voting
   instances are Definition III.3 (the tie-break-aware one is also
   Definition V.1's safety-guaranteed admissibility), the others are the
   baselines' guarantees (strong/Neiger, weak unanimity, interval,
   t-trimmed median) stated over the same (summary, outputs)
   vocabulary.

   Hierarchy edges, each a theorem over non-empty honest multisets:

     voting ─→ voting-strict   (the tie-break-aware form only adds
                                constraints when no strict plurality
                                exists)
     voting ─→ strong          (the plurality winner is an honest input)
     strong ─→ weak            (unanimity makes every honest input the
                                unanimous value)
     strong ─→ interval        (honest inputs lie in the honest range)
     median ─→ interval        (positions m±t of the sorted honest
                                multiset lie between its extremes)
     interval ─→ weak          (a unanimous multiset has a one-point
                                range)

   [voting-strict] entails nothing: it is vacuous whenever no strict
   plurality exists, so its admissible outputs are then unconstrained —
   in particular not necessarily honest inputs. *)

type t = {
  id : string;
  description : string;
  admissible :
    Validity.summary -> t_tol:int -> outputs:Option_id.t option list -> bool;
  stronger_than : string list;
}

let id p = p.id

(* Eta-expanded: as [let admissible p = p.admissible], every call through
   it allocated 11 words. *)
let admissible p s ~t_tol ~outputs = p.admissible s ~t_tol ~outputs

let pp ppf p = Fmt.string ppf p.id

let decided_all_satisfy pred outputs =
  List.for_all (function None -> true | Some v -> pred v) outputs

let decided_all a outputs =
  List.for_all (function None -> true | Some v -> Option_id.equal v a) outputs

(* Definition III.3 under the established tie-break rule.  It is also
   Definition V.1: a safety-guaranteed run is admissible when every
   decided output is the honest plurality, and deciding nothing always
   is. *)
let voting =
  {
    id = "voting";
    description =
      "tie-break-aware voting validity: every decided output is the \
       established-rule plurality of honest inputs (Definition III.3)";
    admissible =
      (fun s ~t_tol:_ ~outputs ->
        match s.Validity.plurality with
        | None -> true
        | Some a -> decided_all a outputs);
    stronger_than = [ "voting-strict"; "strong" ];
  }

let voting_strict =
  {
    id = "voting-strict";
    description =
      "strict voting validity: whenever one option strictly beats every \
       other among honest inputs, every decided output is that option \
       (Definition III.3, no tie-break)";
    admissible =
      (fun s ~t_tol:_ ~outputs ->
        match s.Validity.plurality with
        | Some a when s.Validity.strict -> decided_all a outputs
        | Some _ | None -> true);
    stronger_than = [];
  }

let strong =
  {
    id = "strong";
    description =
      "strong validity (Neiger): every decided output is some honest input";
    admissible =
      (fun s ~t_tol:_ ~outputs ->
        List.for_all
          (function
            | None -> true
            | Some v -> List.exists (Option_id.equal v) s.Validity.inputs)
          outputs);
    stronger_than = [ "weak"; "interval" ];
  }

let unanimous_value = function
  | [] -> None
  | v :: rest -> if List.for_all (Option_id.equal v) rest then Some v else None

let weak =
  {
    id = "weak";
    description =
      "weak (unanimity) validity: if every honest input is the same value, \
       every decided output is that value";
    admissible =
      (fun s ~t_tol:_ ~outputs ->
        match unanimous_value s.Validity.inputs with
        | None -> true
        | Some v -> decided_all v outputs);
    stronger_than = [];
  }

(* The range-valued instances read option ids as integers — the same
   convention the interval/median baselines use for their workloads. *)
let honest_range honest_inputs =
  match List.map Option_id.to_int honest_inputs with
  | [] -> None
  | v :: rest ->
      Some (List.fold_left min v rest, List.fold_left max v rest)

let interval =
  {
    id = "interval";
    description =
      "interval validity (Melnyk-Wattenhofer): every decided output lies \
       within [min, max] of the honest inputs, read as integers";
    admissible =
      (fun s ~t_tol:_ ~outputs ->
        match honest_range s.Validity.inputs with
        | None -> true
        | Some (lo, hi) ->
            decided_all_satisfy
              (fun v ->
                let v = Option_id.to_int v in
                lo <= v && v <= hi)
              outputs);
    stronger_than = [ "weak" ];
  }

(* Positions [m - t, m + t] (clamped) of the ascending honest multiset,
   m = k/2 — the Stolz-Wattenhofer "within t positions of the median"
   guarantee the median baseline's t-trim realises. *)
let median_window ~t_tol honest_inputs =
  match honest_inputs with
  | [] -> None
  | _ ->
      let sorted =
        List.sort Int.compare (List.map Option_id.to_int honest_inputs)
        |> Array.of_list
      in
      let k = Array.length sorted in
      let m = k / 2 in
      Some (sorted.(max 0 (m - t_tol)), sorted.(min (k - 1) (m + t_tol)))

let median =
  {
    id = "median";
    description =
      "median validity (Stolz-Wattenhofer): every decided output lies \
       within t positions of the median of the sorted honest inputs, \
       read as integers";
    admissible =
      (fun s ~t_tol ~outputs ->
        match median_window ~t_tol s.Validity.inputs with
        | None -> true
        | Some (lo, hi) ->
            decided_all_satisfy
              (fun v ->
                let v = Option_id.to_int v in
                lo <= v && v <= hi)
              outputs);
    stronger_than = [ "interval" ];
  }

let all = [ voting; voting_strict; strong; weak; interval; median ]

let names = List.map id all

let find id = List.find_opt (fun p -> String.equal p.id id) all

let equal a b = String.equal a.id b.id

(* Reflexive-transitive closure of [stronger_than]; unknown ids in an
   edge list simply contribute nothing. *)
let implies p q =
  let rec reaches seen id =
    String.equal id q.id
    || (not (List.mem id seen))
       &&
       match find id with
       | None -> false
       | Some p' -> List.exists (reaches (id :: seen)) p'.stronger_than
  in
  reaches [] p.id

type verdict = Exact | Stall | Violation

let verdict_label = function
  | Exact -> "exact"
  | Stall -> "stall"
  | Violation -> "violation"

(* Safety (agreement, and [p] over the decided outputs) is judged even on
   a partial run; a safe run with an undecided honest node is a stall. *)
let judge p s ~t_tol ~outputs =
  if not (Validity.agreement ~outputs && p.admissible s ~t_tol ~outputs) then
    Violation
  else if Validity.termination ~outputs then Exact
  else Stall
