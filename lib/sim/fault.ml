(* Fault plans for individual nodes (Section III-B1).

   A crash-faulty node runs the honest protocol until its crash round; in
   the crash round its outgoing messages reach only an adversary-chosen
   subset of recipients, after which it is silent forever.  This realises
   the mid-broadcast crash used in the proof of Lemma 4 (X_i <> X_G). *)

type t =
  | Honest
  | Byzantine
  | Crash of { at_round : int; deliver_to : Types.node_id list }

let is_byzantine = function Byzantine -> true | Honest | Crash _ -> false
let is_honest = function Honest -> true | Byzantine | Crash _ -> false

(* Whether a message sent at [round] from a node with this plan reaches
   [dst]. *)
let delivers plan ~round ~dst =
  match plan with
  | Honest | Byzantine -> true
  | Crash { at_round; deliver_to } ->
      if round < at_round then true
      else if round > at_round then false
      else List.mem dst deliver_to

(* Compiled delivery predicate: the crash plan's [deliver_to] list turned
   into a bool array keyed by node id when the system is built
   (Config.make), so the engine's per-delivery check is O(1) instead of
   O(|deliver_to|) — the hot path under chaos campaigns, where every
   retransmission re-enters the crash filter. *)
type compiled =
  | All  (** honest / Byzantine: the plan never withholds a delivery *)
  | Crashed of { at_round : int; mask : bool array }

let compile ~n plan =
  match plan with
  | Honest | Byzantine -> All
  | Crash { at_round; deliver_to } ->
      let mask = Array.make n false in
      List.iter
        (fun dst ->
          if dst < 0 || dst >= n then
            invalid_arg "Fault.compile: deliver_to out of range";
          mask.(dst) <- true)
        deliver_to;
      Crashed { at_round; mask }

let compiled_delivers compiled ~round ~dst =
  match compiled with
  | All -> true
  | Crashed { at_round; mask } ->
      if round < at_round then true
      else if round > at_round then false
      else mask.(dst)

let pp ppf = function
  | Honest -> Fmt.string ppf "honest"
  | Byzantine -> Fmt.string ppf "byzantine"
  | Crash { at_round; deliver_to } ->
      Fmt.pf ppf "crash@r%d(->%d nodes)" at_round (List.length deliver_to)
