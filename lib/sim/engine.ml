(* Deterministic round-based execution engine — zero-allocation hot path.

   Round structure (per round r >= 0):
     1. deliver all messages scheduled for r: the round's bucket is sorted
        into the delivery arena (grouped by recipient, sorted by sender,
        stable in scheduling order) and each node reads its inbox as an
        {!Inbox.t} window over the arena;
     2. fire retransmission timers due this round (chaos runs only): each
        destroyed-and-retryable delivery re-enters the network substrate;
     3. step every honest and not-yet-crashed node in id order (round 0 is
        [P.init]); each node pushes its sends into a reusable {!Outbox.t},
        which the engine expands against the topology and the crash filter
        (mid-broadcast crashes deliver to a subset, Lemma 4) into the
        round's send buffer;
     4. let the rushing adversary observe step 3's messages and inject the
        Byzantine nodes' messages, validated against the communication
        model (Property 6 relies on that validation); a statically passive
        adversary skips this step entirely;
     5. route every delivery — honest and adversarial alike — through the
        chaos substrate (Config.network): per-link omission, duplication,
        jitter clamped into the declared delay bound, partitions and
        outages; survivors get a delay and are scheduled.  A delivery the
        substrate destroys is final unless a retransmission policy
        (Config.retransmit) queues a capped-exponential-backoff retry.

   With [Network.none] and no retransmission (the defaults) step 2 is
   empty and step 5 degenerates to the plain delay assignment, drawing
   nothing from the chaos RNG — runs are byte-identical to the
   pre-substrate engine.

   Representation: a delivery in flight is not a record but an immediate
   meta word ([src lsl 20 lor dst]; the retry queue adds the attempt
   count in higher bits) alongside an untyped message slot, both living
   in preallocated growable buffers.  Future rounds are scheduled into a
   round-indexed circular bucket array (power-of-two capacity, slot =
   round land (cap - 1), grown on collision) instead of a Hashtbl of
   lists; a slot gets its bucket, sized once for one all-broadcast
   round, when a round first schedules into it.  Together with the
   outbox/inbox-view protocol API this makes the steady-state round
   loop allocate almost nothing — the per-round
   budget is pinned by test_perf.ml, and every campaign golden is
   byte-identical to the list-based engine's output.

   Determinism contract (pinned by the goldens): the delay RNG is drawn
   once per routed delivery in routing order — retransmissions first (in
   queue order), then adversary plans (in plan order), then honest sends
   (node id order, emission order, neighbourhood order) — and each
   node's inbox lists arrivals sorted by sender id, ties in scheduling
   order.  The chaos RNG is consulted per transit in the same routing
   order.

   Round-count convention: the engine executes at most [Config.max_rounds]
   rounds, with indices 0 .. max_rounds - 1.  Execution stops early the
   round every honest node has decided; a run that exhausts the budget
   with undecided honest nodes is reported as a stall (an admissible
   outcome for safety-guaranteed protocols, Definition V.1).
   [rounds_used] is the *number* of rounds executed — equal to the trace's
   [total_rounds], and equal to [max_rounds] exactly on stalled runs —
   while [decision_round.(i)] is the 0-based *index* of the round node [i]
   decided in (so a node deciding in the last admissible round has
   [decision_round = max_rounds - 1]).  Historically the loop ran
   [max_rounds + 1] rounds and [rounds_used] was the last round index,
   leaving both off by one against the configured budget; the regression
   test in test_sim.ml pins the fixed convention.

   Each run additionally accumulates a structured {!Trace.snapshot}:
   per-round send counts, adversary injections, chaos-substrate activity
   (dropped / duplicated / retransmitted), per-node phase transitions (via
   [P.phase]) and decide rounds.  The snapshot is immutable and is the
   result's only message and round accounting.

   Pause and resume: the round loop is split after step 3.  [run_prefix]
   stops there in the first round whose honest sends satisfy a predicate
   — before the adversary observes them — and returns the whole run state
   as a checkpoint; [resume] copies the checkpoint and finishes the copy
   (steps 4-5 of the paused round, then every later round) against a
   given adversary.  The copy takes everything a later round writes: node
   states (through the caller's [copy]), the node, delay and chaos RNG
   streams, both schedulers, the paused round's honest sends and chaos
   counters, and the trace builder (renamed to the resuming adversary).
   The paused round's arena — the Byzantine inboxes the adversary may
   read — is borrowed until the copy's next delivery.  The checkpoint is
   never written, so it can be resumed any number of times, each equal
   to the uninterrupted run against the same adversary.  [resume] takes
   the same optional pause as [run_prefix], so a resumed copy can stop
   again and become a checkpoint of its own: one round loop serves the
   first checkpoint and every later one. *)

exception Invalid_adversary of string

(* --- packed deliveries and untyped buffers (engine-internal) --- *)

(* Meta word layout: [attempt lsl 40 | src lsl 20 | dst].  20 bits per id
   bounds n at ~10^6 nodes, far beyond simulation sizes; attempts are
   single digits. *)
let dst_bits = 20

let id_mask = (1 lsl dst_bits) - 1

let attempt_shift = 2 * dst_bits

let dummy = Obj.repr ()

(* A growable pair of parallel arrays: one immediate meta word and one
   untyped message per entry.  Cleared and refilled every round without
   re-allocation. *)
type buf = {
  mutable meta : int array;
  mutable bmsgs : Obj.t array;
  mutable blen : int;
}

let buf_make cap =
  { meta = Array.make cap 0; bmsgs = Array.make cap dummy; blen = 0 }

let buf_grow b =
  let cap = Array.length b.meta in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let meta = Array.make ncap 0 and msgs = Array.make ncap dummy in
  Array.blit b.meta 0 meta 0 b.blen;
  Array.blit b.bmsgs 0 msgs 0 b.blen;
  b.meta <- meta;
  b.bmsgs <- msgs

let buf_push b m msg =
  if b.blen = Array.length b.meta then buf_grow b;
  b.meta.(b.blen) <- m;
  b.bmsgs.(b.blen) <- msg;
  b.blen <- b.blen + 1

let buf_clear b =
  (* Drop message references so finished rounds do not pin payloads. *)
  Array.fill b.bmsgs 0 b.blen dummy;
  b.blen <- 0

(* A copy holding the live entries only (the checkpoint copy). *)
let buf_copy b =
  {
    meta = Array.sub b.meta 0 b.blen;
    bmsgs = Array.sub b.bmsgs 0 b.blen;
    blen = b.blen;
  }

(* Round-indexed circular bucket scheduler: the replacement for the old
   Hashtbl-of-lists pending map.  Slot = round land (cap - 1); a slot
   remembers which round its contents belong to, and a collision with a
   non-empty slot doubles the capacity until every live bucket lands on a
   distinct slot (bounded by max_rounds, and reached only when deliveries
   are scheduled more than 16 rounds ahead).

   A slot gets its bucket the first time a round schedules into it; until
   then it holds [empty], one sentinel shared by every schedule (and every
   domain) and never written.  A short run — a checked script decides in
   about two rounds — thus allocates only the buckets it uses, each
   buffer once, at [first_cap] entries.  A drained bucket keeps its slot
   and buffer for the next round that lands there. *)
module Sched = struct
  type bucket = { mutable round : int; buf : buf }

  type t = {
    mutable cap : int;
    mutable buckets : bucket array;
    mutable live : int;  (* deliveries currently scheduled, all buckets *)
    first_cap : int;  (* entries of a new bucket's buffer *)
  }

  let empty = { round = -1; buf = buf_make 0 }

  let create ~first_cap =
    { cap = 16; buckets = Array.make 16 empty; live = 0; first_cap }

  let grow t =
    let live =
      Array.to_list t.buckets |> List.filter (fun b -> b.buf.blen > 0)
    in
    let rec fit cap =
      let seen = Array.make cap false in
      let ok =
        List.for_all
          (fun b ->
            let s = b.round land (cap - 1) in
            if seen.(s) then false
            else begin
              seen.(s) <- true;
              true
            end)
          live
      in
      if ok then cap else fit (2 * cap)
    in
    let cap = fit (2 * t.cap) in
    let buckets = Array.make cap empty in
    List.iter (fun b -> buckets.(b.round land (cap - 1)) <- b) live;
    t.cap <- cap;
    t.buckets <- buckets

  let rec bucket_for t round =
    let slot = round land (t.cap - 1) in
    let b = t.buckets.(slot) in
    if b.round = round then b
    else if b == empty then begin
      let b = { round; buf = buf_make t.first_cap } in
      t.buckets.(slot) <- b;
      b
    end
    else if b.buf.blen = 0 then begin
      b.round <- round;
      b
    end
    else begin
      grow t;
      bucket_for t round
    end

  let push t round meta msg =
    buf_push (bucket_for t round).buf meta msg;
    t.live <- t.live + 1

  (* The bucket due at [round], or [None]; the caller consumes the buffer
     and must [buf_clear] it afterwards (the live count is surrendered
     here, on take). *)
  let take t round =
    let b = t.buckets.(round land (t.cap - 1)) in
    if b.round = round && b.buf.blen > 0 then begin
      t.live <- t.live - b.buf.blen;
      Some b.buf
    end
    else None

  let is_empty t = t.live = 0

  (* An independent copy: live buckets are copied, empty slots [empty]. *)
  let copy t =
    {
      t with
      buckets =
        Array.map
          (fun b ->
            if b.buf.blen = 0 then empty
            else { round = b.round; buf = buf_copy b.buf })
          t.buckets;
    }

  (* Fold over every delivery still scheduled, across all live buckets,
     in no particular order (callers sort).  Feeds the adversary's
     in-flight view; allocates nothing itself. *)
  let fold t f acc =
    let acc = ref acc in
    Array.iter
      (fun b ->
        for i = 0 to b.buf.blen - 1 do
          acc := f !acc b.round b.buf.meta.(i)
        done)
      t.buckets;
    !acc
end

module Make (P : Protocol.S) = struct
  type result = {
    config : Config.t;
    outputs : P.output option array;  (** indexed by node id; Byzantine slots stay [None] *)
    decision_round : int option array;
    rounds_used : int;
    trace : Trace.snapshot;
    stalled : bool;  (** hit [max_rounds] with undecided honest nodes *)
  }

  let honest_outputs res =
    List.map (fun id -> res.outputs.(id)) (Config.honest_ids res.config)

  (* Monomorphic assoc over message keys (the old polymorphic List.assoc
     here was a hot-path hazard and wrong for messages with non-structural
     components). *)
  let rec assoc_msg msg = function
    | [] -> None
    | (m, dsts) :: rest ->
        if P.equal_msg m msg then Some dsts else assoc_msg msg rest

  let rec remove_msg msg = function
    | [] -> []
    | ((m, _) as hd) :: rest ->
        if P.equal_msg m msg then rest else hd :: remove_msg msg rest

  (* Validate one round of adversary output against the fault plan and the
     communication model. *)
  let validate_adversary (cfg : Config.t) (plans : P.msg Adversary.delivery_plan list) =
    let module A = Adversary in
    List.iter
      (fun (p : P.msg A.delivery_plan) ->
        if not (Fault.is_byzantine (Config.fault_of cfg p.A.src)) then
          raise
            (Invalid_adversary
               (Fmt.str "adversary sent from non-Byzantine node %d" p.A.src));
        if p.A.dst < 0 || p.A.dst >= cfg.n then
          raise (Invalid_adversary "adversary destination out of range"))
      plans;
    match cfg.comm with
    | Types.Point_to_point -> ()
    | Types.Local_broadcast ->
        (* A Byzantine sender may broadcast several messages in one round —
           honest nodes can emit several sends, too — but each message
           must reach its whole neighbourhood identically.  Per-recipient
           variation (equivocation) and partial broadcasts both surface as
           a message whose recipient set is not exactly the neighbourhood.
           (The old per-sender uniformity check wrongly rejected two
           distinct uniform broadcasts in one round; the exhaustive checker
           found that on its first sweep.) *)
        let by_src = Hashtbl.create 8 in
        List.iter
          (fun (p : P.msg Adversary.delivery_plan) ->
            let groups =
              match Hashtbl.find_opt by_src p.Adversary.src with
              | None -> []
              | Some l -> l
            in
            let groups =
              match assoc_msg p.Adversary.msg groups with
              | Some dsts ->
                  (p.Adversary.msg, p.Adversary.dst :: dsts)
                  :: remove_msg p.Adversary.msg groups
              | None -> (p.Adversary.msg, [ p.Adversary.dst ]) :: groups
            in
            Hashtbl.replace by_src p.Adversary.src groups)
          plans;
        Hashtbl.iter
          (fun src groups ->
            List.iter
              (fun (_msg, dsts) ->
                let dsts = List.sort_uniq Int.compare dsts in
                if not (List.equal Int.equal dsts (Config.reach cfg src)) then
                  raise
                    (Invalid_adversary
                       (Fmt.str
                          "node %d local-broadcast message did not reach \
                           its whole neighbourhood (equivocation or \
                           partial broadcast)"
                          src)))
              groups)
          by_src

  (* Everything one execution reads and writes after setup.  [run_exn]
     builds one and drives it to the end; [run_prefix] stops driving it
     after a round's honest steps and hands it out as a checkpoint, which
     [resume] copies before driving the copy on. *)
  type run = {
    cfg : Config.t;
    inputs : Types.node_id -> P.input;
    n : int;
    max_rounds : int;
    chaos_active : bool;
    step_until : int array;
        (* last round (inclusive) each node still steps: crash nodes step
           through their crash round, Byzantine nodes never do *)
    byzantine : Types.node_id list;
    ctxs : Protocol.ctx array;  (* per-node contexts, each with its RNG *)
    delay_rng : Vv_prelude.Rng.t;
    chaos_rng : Vv_prelude.Rng.t;
    tb : Trace.builder;
    states : P.state array;
        (* written before first read (round 0 is init); Byzantine slots
           are never written *)
    outputs : P.output option array;
    decision_round : int option array;
    phases : string option array;
    mutable undecided_honest : int;
    pending : Sched.t;  (* future deliveries *)
    retries : Sched.t;  (* retransmission timers *)
    (* per-round chaos accounting, reset each round *)
    mutable dropped : int;
    mutable duplicated : int;
    mutable retransmitted : int;
    (* Delivery arena: each round's bucket is counting-sorted by key
       [dst * n + src] (stable in scheduling order), reproducing the old
       per-recipient stable-sort-by-sender inbox order exactly; nodes then
       read (offset, length) windows of the arena.  A resumed copy borrows
       the checkpoint's arena for the paused round and allocates its own
       before its first write ([arena_owned]). *)
    mutable arena_srcs : int array;
    mutable arena_msgs : Obj.t array;
    mutable arena_owned : bool;
    counts : int array;
    inbox_off : int array;
    inbox_len : int array;
    mutable have_inbox : bool;
    inbox : P.msg Inbox.t;
    outbox : P.msg Outbox.t;
    honest_buf : buf;
        (* the round's expanded honest sends (after crash filtering),
           packed; doubles as the adversary's observation and the routing
           work list *)
    mutable newly_decided : Types.node_id list;
    mutable rounds_used : int;
    mutable stalled : bool;
  }

  let create (cfg : Config.t) ~inputs ~(adversary : P.msg Adversary.t) =
    let n = cfg.Config.n in
    let chaos_active = not (Network.is_none cfg.Config.network) in
    let master = Vv_prelude.Rng.create cfg.Config.seed in
    let node_rngs = Array.init n (fun _ -> Vv_prelude.Rng.split master) in
    let delay_rng = Vv_prelude.Rng.split master in
    let delta = Delay.bound cfg.Config.delay in
    (* One all-broadcast round's deliveries (n^2 on the complete graph),
       capped so a bucket's arrays stay minor-heap blocks. *)
    let first_cap =
      Int.min 256
        (Array.fold_left (fun acc a -> acc + Array.length a) 0
           cfg.Config.reach_arr)
    in
    {
      cfg;
      inputs;
      n;
      max_rounds = cfg.Config.max_rounds;
      chaos_active;
      step_until =
        Array.init n (fun id ->
            match cfg.Config.faults.(id) with
            | Fault.Honest -> max_int
            | Fault.Crash { at_round; _ } -> at_round
            | Fault.Byzantine -> -1);
      byzantine = Config.byzantine_ids cfg;
      delay_rng;
      (* Chaos draws come from a separate stream seeded by the network
         plan alone, so a chaos plan replays identically across engine
         seeds and the delay/node streams are untouched by its presence. *)
      chaos_rng = Network.rng cfg.Config.network;
      ctxs =
        Array.init n (fun id ->
            {
              Protocol.n;
              t = cfg.Config.t_max;
              me = id;
              comm = cfg.Config.comm;
              delta;
              rng = node_rngs.(id);
            });
      tb =
        Trace.builder
          ~chaos:(chaos_active || cfg.Config.retransmit <> None)
          ~protocol:P.name ~adversary:adversary.Adversary.name ~n
          ~t:cfg.Config.t_max ();
      states = Obj.magic (Array.make n dummy);
      outputs = Array.make n None;
      decision_round = Array.make n None;
      phases = Array.make n None;
      undecided_honest = List.length (Config.honest_ids cfg);
      pending = Sched.create ~first_cap;
      retries = Sched.create ~first_cap;
      dropped = 0;
      duplicated = 0;
      retransmitted = 0;
      arena_srcs = [||];
      arena_msgs = [||];
      arena_owned = true;
      counts = Array.make (n * n) 0;
      inbox_off = Array.make n 0;
      inbox_len = Array.make n 0;
      have_inbox = false;
      inbox = Inbox.create ();
      outbox = Outbox.create ();
      honest_buf = buf_make 0;
      newly_decided = [];
      rounds_used = 0;
      stalled = false;
    }

  (* An independent copy of [r] paused after the honest steps of [round]:
     everything a later round writes is copied (the schedulers' live
     buckets only: an empty slot holds the sentinel, and the copy makes
     its own bucket when a round first schedules there), the round's
     scratch (sort counts, inbox and outbox) is fresh, and what no later
     round touches (configuration, the states of nodes that never step
     again, the arena until it is next written) is shared. *)
  let copy_run ~copy r ~round ~(adversary : P.msg Adversary.t) =
    {
      r with
      ctxs =
        Array.map
          (fun ctx ->
            { ctx with Protocol.rng = Vv_prelude.Rng.copy ctx.Protocol.rng })
          r.ctxs;
      delay_rng = Vv_prelude.Rng.copy r.delay_rng;
      chaos_rng = Vv_prelude.Rng.copy r.chaos_rng;
      tb = Trace.copy r.tb ~adversary:adversary.Adversary.name;
      states =
        Array.mapi
          (fun id st -> if r.step_until.(id) > round then copy st else st)
          r.states;
      outputs = Array.copy r.outputs;
      decision_round = Array.copy r.decision_round;
      phases = Array.copy r.phases;
      pending = Sched.copy r.pending;
      retries = Sched.copy r.retries;
      arena_owned = false;
      counts = Array.make (r.n * r.n) 0;
      inbox_off = Array.copy r.inbox_off;
      inbox_len = Array.copy r.inbox_len;
      inbox = Inbox.create ();
      outbox = Outbox.create ();
      honest_buf = buf_copy r.honest_buf;
    }

  let note_phase r ~round id state =
    let phase = P.phase state in
    match r.phases.(id) with
    | Some p when String.equal p phase -> ()
    | Some _ | None ->
        r.phases.(id) <- Some phase;
        Trace.record_phase r.tb ~round ~node:id ~phase

  let schedule r ~arrival ~src ~dst msg =
    if arrival < r.max_rounds then
      Sched.push r.pending arrival ((src lsl dst_bits) lor dst) msg

  let queue_retry r ~round ~attempt ~src ~dst msg =
    match r.cfg.Config.retransmit with
    | Some policy when attempt < policy.Retransmit.max_attempts ->
        let next = attempt + 1 in
        let at = round + Retransmit.backoff policy ~attempt:next in
        if at < r.max_rounds then
          Sched.push r.retries at
            ((next lsl attempt_shift) lor (src lsl dst_bits) lor dst)
            msg
    | Some _ | None -> ()

  let base_delay r ~round ~src ~dst =
    Delay.resolve r.cfg.Config.delay r.delay_rng ~round ~src ~dst

  (* Jitter must stay within the delay model's own delivery guarantee:
     the substrate reorders arrivals but cannot break the assumption
     honest protocols rely on.  The cap is per send round — constant
     (= delta_t) for the bounded models, the fairness cap under
     [Asynchronous], and the shrinking [gst + bound - round] admissible
     window pre-GST under [Eventually_synchronous]. *)
  let clamp r ~round d =
    let b = Delay.max_delay r.cfg.Config.delay ~round in
    if d < b then d else b

  (* [route] is the send->delivery path: chaos verdict, delay assignment,
     arrival-time cut check, retransmission queuing.  The non-chaos path
     is exactly the legacy delay assignment (and draws nothing from the
     chaos stream). *)
  let route r ~round ~attempt ~src ~dst msg =
    if not r.chaos_active then
      let arrival = round + base_delay r ~round ~src ~dst in
      schedule r ~arrival ~src ~dst msg
    else
      (* Packed verdict ([Network.transit_i]): no allocation per chaos
         delivery. *)
      let network = r.cfg.Config.network in
      let v = Network.transit_i network r.chaos_rng ~round ~src ~dst in
      if v = Network.dropped_i then begin
        r.dropped <- r.dropped + 1;
        queue_retry r ~round ~attempt ~src ~dst msg
      end
      else begin
        let extra_delay = v lsr 1 in
        let arrival =
          round + clamp r ~round (base_delay r ~round ~src ~dst + extra_delay)
        in
        (* A message in flight into a partition/outage window is lost at
           the receiver. *)
        if Network.cut network ~round:arrival ~src ~dst then begin
          r.dropped <- r.dropped + 1;
          queue_retry r ~round ~attempt ~src ~dst msg
        end
        else schedule r ~arrival ~src ~dst msg;
        if v land 1 = 1 then begin
          r.duplicated <- r.duplicated + 1;
          (* The duplicate gets its own delay draws and is never retried —
             the original covers the retransmission. *)
          let extra = Network.extra_delay network r.chaos_rng in
          let arrival =
            round + clamp r ~round (base_delay r ~round ~src ~dst + extra)
          in
          if Network.cut network ~round:arrival ~src ~dst then
            r.dropped <- r.dropped + 1
          else schedule r ~arrival ~src ~dst msg
        end
      end

  let rec route_plans r ~round = function
    | [] -> ()
    | (p : P.msg Adversary.delivery_plan) :: rest ->
        route r ~round ~attempt:0 ~src:p.Adversary.src ~dst:p.Adversary.dst
          (Obj.repr p.Adversary.msg);
        route_plans r ~round rest

  let sort_into_arena r (b : buf) =
    let n = r.n in
    let len = b.blen in
    if (not r.arena_owned) || Array.length r.arena_srcs < len then begin
      let cap =
        if r.arena_owned then max len (2 * Array.length r.arena_srcs) else len
      in
      r.arena_srcs <- Array.make cap 0;
      r.arena_msgs <- Array.make cap dummy;
      r.arena_owned <- true
    end;
    let counts = r.counts in
    Array.fill counts 0 (n * n) 0;
    for i = 0 to len - 1 do
      let m = b.meta.(i) in
      let key = ((m land id_mask) * n) + ((m lsr dst_bits) land id_mask) in
      counts.(key) <- counts.(key) + 1
    done;
    let cum = ref 0 in
    for d = 0 to n - 1 do
      let off = !cum in
      r.inbox_off.(d) <- off;
      for key = d * n to (d * n) + n - 1 do
        let c = counts.(key) in
        counts.(key) <- !cum;
        cum := !cum + c
      done;
      r.inbox_len.(d) <- !cum - off
    done;
    let srcs = r.arena_srcs and msgs = r.arena_msgs in
    for i = 0 to len - 1 do
      let m = b.meta.(i) in
      let src = (m lsr dst_bits) land id_mask in
      let key = ((m land id_mask) * n) + src in
      let pos = counts.(key) in
      counts.(key) <- pos + 1;
      srcs.(pos) <- src;
      msgs.(pos) <- b.bmsgs.(i)
    done

  (* This round's inbox of node [id], as the old assoc-list shape (for the
     adversary's view only — honest nodes read the window). *)
  let segment_list r id =
    if not r.have_inbox then []
    else begin
      let off = r.inbox_off.(id) in
      let rec go i acc =
        if i < off then acc
        else
          go (i - 1)
            ((r.arena_srcs.(i), (Obj.obj r.arena_msgs.(i) : P.msg)) :: acc)
      in
      go (off + r.inbox_len.(id) - 1) []
    end

  let expand_outbox r ~round ~src =
    let cfg = r.cfg and outbox = r.outbox in
    let reach = cfg.Config.reach_arr.(src) in
    for i = 0 to Outbox.length outbox - 1 do
      let dst = Outbox.dst outbox i in
      let msg = Obj.repr (Outbox.msg outbox i) in
      if dst = Outbox.broadcast_dst then
        for j = 0 to Array.length reach - 1 do
          let d = reach.(j) in
          if Config.delivers cfg ~src ~round ~dst:d then
            buf_push r.honest_buf ((src lsl dst_bits) lor d) msg
        done
      else begin
        (* Honest nodes under local broadcast may only broadcast. *)
        (match cfg.Config.comm with
        | Types.Local_broadcast ->
            invalid_arg
              (Fmt.str "%s: node %d attempted unicast under local broadcast"
                 P.name src)
        | Types.Point_to_point -> ());
        let neighbour =
          match cfg.Config.topology with
          | None -> dst >= 0 && dst < r.n
          | Some _ ->
              let rec mem j =
                j < Array.length reach && (reach.(j) = dst || mem (j + 1))
              in
              mem 0
        in
        if not neighbour then
          invalid_arg
            (Fmt.str "%s: node %d unicast to non-neighbour %d" P.name src dst);
        if Config.delivers cfg ~src ~round ~dst then
          buf_push r.honest_buf ((src lsl dst_bits) lor dst) msg
      end
    done

  (* One reusable adversary view per driven run (the indexed-window
     analogue of the inbox): [round]/[sent_len] are refreshed each round,
     accessors read the live send buffer and arena, so observation is free
     until the adversary asks for content. *)
  let make_view r =
    {
      Adversary.round = 0;
      sent_len = 0;
      sent_src = (fun i -> (r.honest_buf.meta.(i) lsr dst_bits) land id_mask);
      sent_dst = (fun i -> r.honest_buf.meta.(i) land id_mask);
      sent_msg = (fun i -> (Obj.obj r.honest_buf.bmsgs.(i) : P.msg));
      byz_inbox = segment_list r;
      in_flight =
        (fun () ->
          Sched.fold r.pending
            (fun acc rd m ->
              (rd, (m lsr dst_bits) land id_mask, m land id_mask) :: acc)
            []
          |> List.sort compare);
      byzantine = r.byzantine;
      n = r.n;
      reach = Config.reach r.cfg;
    }

  (* Point the view at [round]'s honest sends. *)
  let observe r view round =
    view.Adversary.round <- round;
    view.Adversary.sent_len <- r.honest_buf.blen

  (* Steps 1-3 of [round]: deliver, fire retransmission timers, step the
     live nodes.  A checkpoint is taken right after this half. *)
  let honest_half r round =
    r.rounds_used <- round + 1;
    r.dropped <- 0;
    r.duplicated <- 0;
    r.retransmitted <- 0;
    r.newly_decided <- [];
    (* 1. deliver: sort this round's bucket into the arena. *)
    (match Sched.take r.pending round with
    | None -> r.have_inbox <- false
    | Some b ->
        sort_into_arena r b;
        buf_clear b;
        r.have_inbox <- true);
    (* 2. fire retransmission timers due this round, in queue order. *)
    (match Sched.take r.retries round with
    | None -> ()
    | Some b ->
        (* Routing may queue further retries (always for later rounds) and
           appends this round's sends to [pending]; neither touches this
           round's retry bucket, which is released once drained. *)
        for i = 0 to b.blen - 1 do
          r.retransmitted <- r.retransmitted + 1;
          let m = b.meta.(i) in
          route r ~round
            ~attempt:(m lsr attempt_shift)
            ~src:((m lsr dst_bits) land id_mask)
            ~dst:(m land id_mask) b.bmsgs.(i)
        done;
        buf_clear b);
    buf_clear r.honest_buf;
    (* 3. step honest and not-yet-crashed nodes in id order. *)
    let inbox = r.inbox and outbox = r.outbox in
    for id = 0 to r.n - 1 do
      if round <= r.step_until.(id) then begin
        if r.have_inbox then
          Inbox.set_view inbox ~srcs:r.arena_srcs ~msgs:r.arena_msgs
            ~off:r.inbox_off.(id) ~len:r.inbox_len.(id)
        else Inbox.set_empty inbox;
        Outbox.clear outbox;
        let state' =
          if round = 0 then P.init r.ctxs.(id) (r.inputs id) ~outbox
          else P.step r.ctxs.(id) r.states.(id) ~round ~inbox ~outbox
        in
        r.states.(id) <- state';
        note_phase r ~round id state';
        (match P.output state' with
        | Some _ as out -> (
            match r.outputs.(id) with
            | Some _ -> ()
            | None ->
                r.outputs.(id) <- out;
                r.decision_round.(id) <- Some round;
                r.newly_decided <- id :: r.newly_decided;
                if Fault.is_honest r.cfg.Config.faults.(id) then
                  r.undecided_honest <- r.undecided_honest - 1;
                Trace.record_decide r.tb ~round ~node:id)
        | None -> ());
        expand_outbox r ~round ~src:id
      end
    done

  (* Whether every node that will still step is inert (Byzantine nodes
     never step and hold no state; a crash node past its crash round is as
     quiet as one mid-life). *)
  let all_inert r round =
    let inert = ref true in
    for id = 0 to r.n - 1 do
      if r.step_until.(id) > round && not (P.inert r.states.(id)) then
        inert := false
    done;
    !inert

  (* Steps 4-5 of [round] and its trace record; [true] while the run goes
     on, [false] once it is over (with [stalled] set). *)
  let adversary_half r (adversary : P.msg Adversary.t) view round =
    (* 4. rushing adversary: observes this round's honest messages.  A
       statically passive adversary skips the view entirely. *)
    let plans =
      if adversary.Adversary.passive then []
      else begin
        observe r view round;
        let plans = adversary.Adversary.act view in
        (match plans with [] -> () | _ :: _ -> validate_adversary r.cfg plans);
        plans
      end
    in
    (* 5. route: adversary plans first, then honest sends — the RNG draw
       order the goldens pin. *)
    route_plans r ~round plans;
    let honest_buf = r.honest_buf in
    for i = 0 to honest_buf.blen - 1 do
      let m = honest_buf.meta.(i) in
      route r ~round ~attempt:0
        ~src:((m lsr dst_bits) land id_mask)
        ~dst:(m land id_mask) honest_buf.bmsgs.(i)
    done;
    Trace.record_round r.tb ~round ~honest_sent:honest_buf.blen
      ~byz_sent:(List.length plans) ~dropped:r.dropped ~duplicated:r.duplicated
      ~retransmitted:r.retransmitted ~newly_decided:r.newly_decided;
    if r.undecided_honest = 0 then false
    else if
      (* Fast-forward: when nothing is in flight, no timer can fire, the
         adversary is quiescent and every still-stepping node is inert,
         all remaining rounds are provably quiet — record them as one
         shared quiet tail and jump to the stall verdict. *)
      round < r.max_rounds - 1
      && Sched.is_empty r.pending && Sched.is_empty r.retries
      && (adversary.Adversary.passive || adversary.Adversary.quiescent ())
      && all_inert r round
    then begin
      Trace.record_quiet_tail r.tb ~from:(round + 1) ~rounds:r.max_rounds;
      r.rounds_used <- r.max_rounds;
      r.stalled <- true;
      false
    end
    else if round = r.max_rounds - 1 then begin
      r.stalled <- true;
      false
    end
    else true

  let pauses r view ~pause round =
    match pause with
    | None -> false
    | Some holds ->
        observe r view round;
        holds view

  (* The round loop.  [rounds] runs [round] from its first step; [finish]
     enters it after the honest half (a resumed checkpoint).  Returns
     [Some round] when [pause] held after that round's honest half, and
     [None] once the run is over. *)
  let rec rounds r adversary view ~pause round =
    honest_half r round;
    if pauses r view ~pause round then Some round
    else finish r adversary view ~pause round

  and finish r adversary view ~pause round =
    if adversary_half r adversary view round then
      rounds r adversary view ~pause (round + 1)
    else None

  let start r adversary ~pause =
    if r.max_rounds > 0 then rounds r adversary (make_view r) ~pause 0
    else begin
      r.stalled <- r.undecided_honest > 0;
      None
    end

  let result_of r =
    let trace = Trace.snapshot r.tb ~stalled:r.stalled in
    {
      config = r.cfg;
      outputs = r.outputs;
      decision_round = r.decision_round;
      rounds_used = r.rounds_used;
      trace;
      stalled = r.stalled;
    }

  let run_exn (cfg : Config.t) ~inputs ?(adversary = Adversary.passive) () =
    let r = create cfg ~inputs ~adversary in
    ignore (start r adversary ~pause:None : int option);
    result_of r

  let run (cfg : Config.t) ~inputs ?adversary () =
    match run_exn cfg ~inputs ?adversary () with
    | res -> Ok res
    | exception Invalid_adversary reason -> Error (`Invalid_adversary reason)

  type checkpoint = { run : run; round : int; copy : P.state -> P.state }

  type prefix = Paused of checkpoint | Finished of result

  (* Drive [r] with [loop] and hand out where it stopped. *)
  let stop r ~copy loop =
    match loop () with
    | Some round -> Ok (Paused { run = r; round; copy })
    | None -> Ok (Finished (result_of r))
    | exception Invalid_adversary reason -> Error (`Invalid_adversary reason)

  let run_prefix (cfg : Config.t) ~inputs ~copy ?(adversary = Adversary.passive)
      ~pause () =
    let r = create cfg ~inputs ~adversary in
    stop r ~copy (fun () -> start r adversary ~pause:(Some pause))

  let resume (cp : checkpoint) ?(adversary = Adversary.passive) ?pause () =
    let r = copy_run ~copy:cp.copy cp.run ~round:cp.round ~adversary in
    stop r ~copy:cp.copy (fun () ->
        finish r adversary (make_view r) ~pause cp.round)
end
