(* Multi-shot throughput engine: batches subjects into slots, shards slot
   computation across Executor domains, and accounts for slot pipelining.

   The engine owns the submit queue and the committed log; deciding is
   pure per subject ({!Ledger.compute}), so a group of positions fans out
   through {!Vv_exec.Executor.map} and merges in index order — the
   committed log is byte-identical at every [jobs] value, and an engine
   with [batch = 1] and [jobs = 1] reproduces {!Ledger.decide} exactly.

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
module Rng = Vv_prelude.Rng
module Executor = Vv_exec.Executor

type t = {
  cfg : Ledger.config;
  batch : int;
  jobs : int;
  mutable decided_rev : Ledger.slot list;
  mutable ndecided : int;
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
    ndecided = 0;
    pending_rev = [];
    npending = 0;
  }

let config t = t.cfg
let batch t = t.batch
let height t = t.ndecided
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
  let position = t.ndecided + t.npending in
  t.pending_rev <- (subject, inputs) :: t.pending_rev;
  t.npending <- t.npending + 1;
  position

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
    let p0 = t.ndecided in
    let slots =
      Executor.map ~jobs:t.jobs ~count:(Array.length items) (fun i ->
          let subject, inputs = items.(i) in
          let position = p0 + i in
          Ledger.compute t.cfg
            ~speaker_base:(slot_of t position mod t.cfg.Ledger.n)
            ~index:position ~subject inputs)
    in
    Array.iter
      (fun s ->
        t.decided_rev <- s :: t.decided_rev;
        t.ndecided <- t.ndecided + 1)
      slots;
    t.pending_rev <- List.rev later;
    t.npending <- t.npending - Array.length items;
    Array.to_list slots
  end

(* Decide every pending submission that completes a full slot; partial
   trailing slots wait for more traffic (or a flush). *)
let step t =
  let total = t.ndecided + t.npending in
  let full = total / t.batch * t.batch in
  decide_group t (full - t.ndecided)

let flush t = decide_group t t.npending

(* Follower replication: append a slot decided elsewhere (a primary's
   decision stream) instead of computing it. Only meaningful on an
   engine that never takes submissions of its own. *)
let append_committed t (s : Ledger.slot) =
  if t.npending > 0 then
    Error "append_committed: engine has local pending submissions"
  else if s.Ledger.index < t.ndecided then Ok `Stale
  else if s.Ledger.index > t.ndecided then
    Error
      (Printf.sprintf "append_committed: gap (log height %d, slot index %d)"
         t.ndecided s.Ledger.index)
  else begin
    t.decided_rev <- s :: t.decided_rev;
    t.ndecided <- t.ndecided + 1;
    Ok `Applied
  end

let all_committed_valid t =
  List.for_all
    (fun (s : Ledger.slot) ->
      match s.Ledger.decision with Some _ -> s.Ledger.valid | None -> true)
    t.decided_rev

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

let stats_of ~batch ~bb ~n ~t:tol (slots : Ledger.slot list) =
  if batch < 1 then invalid_arg "Engine.stats_of: batch must be >= 1";
  let phase1 = Vv_bb.Bb.rounds bb ~n ~t:tol in
  (* Group committed positions by slot, in position order. *)
  let groups = Hashtbl.create 16 in
  let max_slot = ref (-1) in
  List.iter
    (fun (s : Ledger.slot) ->
      let k = s.Ledger.index / batch in
      if k > !max_slot then max_slot := k;
      Hashtbl.replace groups k
        (s :: (Option.value ~default:[] (Hashtbl.find_opt groups k))))
    slots;
  let decided = List.length slots in
  let committed =
    List.length
      (List.filter (fun (s : Ledger.slot) -> s.Ledger.decision <> None) slots)
  in
  let attempts_total =
    List.fold_left (fun a (s : Ledger.slot) -> a + s.Ledger.attempts) 0 slots
  in
  let rounds_instances =
    List.fold_left (fun a (s : Ledger.slot) -> a + s.Ledger.rounds_total) 0 slots
  in
  let slots_used = Hashtbl.length groups in
  let seq = ref 0 and start = ref 0 and makespan = ref 0 in
  for k = 0 to !max_slot do
    match Hashtbl.find_opt groups k with
    | None -> ()
    | Some lanes ->
        let duration =
          List.fold_left
            (fun a (s : Ledger.slot) -> max a s.Ledger.rounds_total)
            0 lanes
        in
        let occupancy =
          phase1
          * List.fold_left
              (fun a (s : Ledger.slot) -> max a s.Ledger.attempts)
              0 lanes
        in
        seq := !seq + duration;
        makespan := max !makespan (!start + duration);
        (* The broadcast layer frees after this slot's (retried)
           Phase-1 broadcasts, but never before the slot itself could
           have finished broadcasting — occupancy is capped by
           duration so a short final attempt cannot let the next slot
           start before this one's own rounds elapse in sequence. *)
        start := !start + min occupancy duration
  done;
  {
    decided;
    committed;
    skipped = decided - committed;
    slots_used;
    attempts_total;
    rounds_instances;
    rounds_sequential = !seq;
    rounds_pipelined = !makespan;
    all_valid =
      List.for_all
        (fun (s : Ledger.slot) ->
          match s.Ledger.decision with
          | Some _ -> s.Ledger.valid
          | None -> true)
        slots;
  }

let stats t =
  stats_of ~batch:t.batch ~bb:t.cfg.Ledger.bb ~n:t.cfg.Ledger.n
    ~t:t.cfg.Ledger.t (decisions t)

(* --- one-shot convenience --- *)

let run ?batch ?jobs cfg requests =
  let t = create ?batch ?jobs cfg in
  List.iter (fun (subject, inputs) -> ignore (submit t ~subject inputs)) requests;
  ignore (flush t);
  (decisions t, stats t)
