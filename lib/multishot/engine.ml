(* Multi-shot throughput engine: batches subjects into slots, shards slot
   computation across Executor domains, and accounts for slot pipelining.

   The engine owns the submit queue and the committed log, the only
   multi-shot log there is; deciding is pure per subject
   ({!Ledger.compute}), so a group of positions fans out through
   {!Vv_exec.Executor.map} and merges in index order — the committed log
   is byte-identical at every [jobs] value, and an engine with
   [batch = 1] commits at position [p] exactly [Ledger.compute ~index:p]
   of the [p]-th submission.

   Positions, slots and lanes.  Every accepted submission gets the next
   global position [p]; with batch size [b] it lands in slot [p / b],
   lane [p mod b].  All lanes of a slot run under the same speaker
   schedule (first speaker [slot mod n]) — one slot is one "instance" of
   the ledger protocol deciding [b] subjects at once.

   Pipelining model.  Phase 1 of a slot is the Byzantine-broadcast of its
   votes ([Bb.rounds] rounds per attempt); Phase 2 is the vote/decide
   exchange.  The broadcast layer is the serial resource: slot k+1 may
   start its Phase-1 broadcast as soon as slot k's broadcasts are done,
   overlapping slot k's Phase 2.  With per-slot broadcast occupancy
   [o_k = max-attempts_k * phase1] and duration [d_k = max-lane
   rounds_total_k],

     start_0 = 0,  start_{k+1} = start_k + o_k,
     pipelined_makespan = max_k (start_k + d_k).

   All three cost figures in {!stats} (per-instance sum, per-slot
   sequential sum, pipelined makespan) are computed from committed slots
   only, so they are deterministic and jobs-invariant. *)

module Oid = Vv_ballot.Option_id
module Executor = Vv_exec.Executor

(* --- cost accounting --- *)

type stats = {
  decided : int;
  committed : int;
  skipped : int;
  slots_used : int;
  attempts_total : int;
  rounds_instances : int;
  rounds_sequential : int;
  rounds_pipelined : int;
  all_valid : bool;
}

(* Running totals over committed slots in position order.  The lanes of a
   slot are adjacent positions, so only the newest slot is open: its
   duration and occupancy grow with its lanes, and it joins the closed
   totals when the next slot begins.  Adding a slot allocates nothing and
   reading the stats is O(1). *)
type tally = {
  phase1 : int;  (* rounds of one Phase-1 broadcast *)
  mutable positions : int;
  mutable commits : int;
  mutable attempts : int;
  mutable instance_rounds : int;
  mutable valid : bool;  (* every commit so far carried voting validity *)
  mutable slots : int;
  mutable open_slot : int;  (* -1 before the first slot *)
  mutable open_duration : int;  (* its longest lane *)
  mutable open_occupancy : int;  (* phase1 * its most attempts *)
  mutable open_start : int;  (* when its Phase-1 broadcasts start *)
  mutable closed_rounds : int;  (* the closed slots' summed durations *)
  mutable closed_makespan : int;
}

let tally_create ~bb ~n ~t =
  { phase1 = Vv_bb.Bb.rounds bb ~n ~t; positions = 0; commits = 0;
    attempts = 0; instance_rounds = 0; valid = true; slots = 0;
    open_slot = -1; open_duration = 0; open_occupancy = 0; open_start = 0;
    closed_rounds = 0; closed_makespan = 0 }

let tally_add tl ~batch (s : Ledger.slot) =
  let k = s.Ledger.index / batch in
  if k <> tl.open_slot then begin
    tl.closed_rounds <- tl.closed_rounds + tl.open_duration;
    tl.closed_makespan <-
      Int.max tl.closed_makespan (tl.open_start + tl.open_duration);
    (* The broadcast layer frees after this slot's (retried) Phase-1
       broadcasts, but never before the slot itself could have finished
       broadcasting — occupancy is capped by duration so a short final
       attempt cannot let the next slot start before this one's own
       rounds elapse in sequence. *)
    tl.open_start <- tl.open_start + Int.min tl.open_occupancy tl.open_duration;
    tl.open_slot <- k;
    tl.open_duration <- 0;
    tl.open_occupancy <- 0;
    tl.slots <- tl.slots + 1
  end;
  tl.open_duration <- Int.max tl.open_duration s.Ledger.rounds_total;
  tl.open_occupancy <-
    Int.max tl.open_occupancy (tl.phase1 * s.Ledger.attempts);
  tl.positions <- tl.positions + 1;
  tl.attempts <- tl.attempts + s.Ledger.attempts;
  tl.instance_rounds <- tl.instance_rounds + s.Ledger.rounds_total;
  match s.Ledger.decision with
  | Some _ ->
      tl.commits <- tl.commits + 1;
      tl.valid <- tl.valid && s.Ledger.valid
  | None -> ()

let stats_of_tally tl =
  {
    decided = tl.positions;
    committed = tl.commits;
    skipped = tl.positions - tl.commits;
    slots_used = tl.slots;
    attempts_total = tl.attempts;
    rounds_instances = tl.instance_rounds;
    rounds_sequential = tl.closed_rounds + tl.open_duration;
    rounds_pipelined =
      Int.max tl.closed_makespan (tl.open_start + tl.open_duration);
    all_valid = tl.valid;
  }

let stats_of ~batch ~bb ~n ~t (slots : Ledger.slot list) =
  if batch < 1 then invalid_arg "Engine.stats_of: batch must be >= 1";
  let tl = tally_create ~bb ~n ~t in
  List.iter (tally_add tl ~batch) slots;
  stats_of_tally tl

(* --- the engine --- *)

type t = {
  cfg : Ledger.config;
  batch : int;
  jobs : int;
  mutable decided_rev : Ledger.slot list;
  tally : tally;  (* of [decided_rev]; its [positions] is the height *)
  mutable pending_rev : (int * Oid.t list) list;
  mutable npending : int;
}

let create ?(batch = 1) ?(jobs = 1) cfg =
  if batch < 1 then invalid_arg "Engine.create: batch must be >= 1";
  if jobs < 0 then invalid_arg "Engine.create: negative jobs";
  {
    cfg;
    batch;
    jobs;
    decided_rev = [];
    tally = tally_create ~bb:cfg.Ledger.bb ~n:cfg.Ledger.n ~t:cfg.Ledger.t;
    pending_rev = [];
    npending = 0;
  }

let config t = t.cfg
let batch t = t.batch
let height t = t.tally.positions
let pending t = t.npending

let slot_of t position = position / t.batch
let lane_of t position = position mod t.batch

let decisions t = List.rev t.decided_rev

(* The log is held newest-first with dense indices, so the suffix from
   [from] is a walk over its [height - from] newest slots. *)
let decisions_from t from =
  let rec take acc = function
    | (s : Ledger.slot) :: rest when s.Ledger.index >= from ->
        take (s :: acc) rest
    | _ -> acc
  in
  take [] t.decided_rev

let submit t ~subject inputs =
  if List.length inputs <> t.cfg.Ledger.n then
    invalid_arg "Engine.submit: inputs must have length n";
  let position = height t + t.npending in
  t.pending_rev <- (subject, inputs) :: t.pending_rev;
  t.npending <- t.npending + 1;
  position

(* Extend the committed log by the next position. *)
let commit t (s : Ledger.slot) =
  t.decided_rev <- s :: t.decided_rev;
  tally_add t.tally ~batch:t.batch s

(* Decide the first [m] pending submissions (in submit order) and append
   them to the committed log. *)
let decide_group t m =
  if m <= 0 then []
  else begin
    let pending = List.rev t.pending_rev in
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> split (k - 1) (x :: acc) rest
    in
    let now, later = split m [] pending in
    let items = Array.of_list now in
    let p0 = height t in
    let slots =
      Executor.map ~jobs:t.jobs ~count:(Array.length items) (fun i ->
          let subject, inputs = items.(i) in
          let position = p0 + i in
          Ledger.compute t.cfg
            ~speaker_base:(slot_of t position mod t.cfg.Ledger.n)
            ~index:position ~subject inputs)
    in
    Array.iter (commit t) slots;
    t.pending_rev <- List.rev later;
    t.npending <- t.npending - Array.length items;
    Array.to_list slots
  end

(* Decide every pending submission that completes a full slot; partial
   trailing slots wait for more traffic (or a flush). *)
let step t =
  let total = height t + t.npending in
  let full = total / t.batch * t.batch in
  decide_group t (full - height t)

let flush t = decide_group t t.npending

(* Follower replication: append a slot decided elsewhere (a primary's
   decision stream) instead of computing it. Only meaningful on an
   engine that never takes submissions of its own. *)
let append_committed t (s : Ledger.slot) =
  if t.npending > 0 then
    Error "append_committed: engine has local pending submissions"
  else if s.Ledger.index < height t then Ok `Stale
  else if s.Ledger.index > height t then
    Error
      (Printf.sprintf "append_committed: gap (log height %d, slot index %d)"
         (height t) s.Ledger.index)
  else begin
    commit t s;
    Ok `Applied
  end

let all_committed_valid t = t.tally.valid
let stats t = stats_of_tally t.tally

(* --- one-shot convenience --- *)

let run ?batch ?jobs cfg requests =
  let t = create ?batch ?jobs cfg in
  List.iter (fun (subject, inputs) -> ignore (submit t ~subject inputs)) requests;
  ignore (flush t);
  (decisions t, stats t)
