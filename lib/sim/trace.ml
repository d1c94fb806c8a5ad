(* Structured per-run traces.

   The engine records, while it runs, one [round_record] per executed round
   (send counts, adversary injections, decisions, and — under the chaos
   substrate — dropped/duplicated/retransmitted deliveries) plus every
   per-node phase transition reported by the protocol's [Protocol.S.phase].
   At the end of the run the accumulated history is frozen into an
   immutable [snapshot]: callers get a value they can store, diff, and
   emit (CSV/JSON) without worrying about the engine mutating it behind
   their back.

   The [chaos] flag records whether the run had the substrate (or
   retransmission) engaged; the CSV/JSON emitters add the chaos columns
   only then, so traces of plain runs stay byte-identical to the
   pre-substrate format. *)

module Json = Vv_prelude.Json

type round_record = {
  round : int;
  honest_sent : int;  (** honest point-to-point deliveries sent this round *)
  byz_sent : int;  (** adversary deliveries injected this round *)
  dropped : int;  (** deliveries destroyed by the chaos substrate *)
  duplicated : int;  (** extra copies injected by the substrate *)
  retransmitted : int;  (** retransmission attempts fired this round *)
  newly_decided : Types.node_id list;  (** ascending *)
  decided_total : int;  (** cumulative honest decisions after this round *)
}

type phase_event = {
  at_round : int;
  node : Types.node_id;
  phase : string;  (** the phase entered *)
}

type snapshot = {
  protocol : string;
  adversary : string;
  n : int;
  t : int;
  rounds : round_record list;  (** ascending by round *)
  phases : phase_event list;  (** chronological, then by node id *)
  decide_rounds : (Types.node_id * int) list;  (** ascending by node id *)
  honest_msgs : int;
  byz_msgs : int;
  dropped_msgs : int;
  dup_msgs : int;
  retrans_msgs : int;
  total_rounds : int;  (** rounds executed (last round index + 1) *)
  stalled : bool;
  chaos : bool;  (** substrate or retransmission engaged for this run *)
}

(* --- builder (engine-internal mutability, frozen by [snapshot]) --- *)

type builder = {
  b_protocol : string;
  b_adversary : string;
  b_n : int;
  b_t : int;
  b_chaos : bool;
  mutable b_rounds : round_record list;  (* reversed *)
  mutable b_tail : round_record list;
      (* ascending, shared with other runs ([record_quiet_tail]); after
         [b_rounds] and never followed by another record *)
  mutable b_total : int;  (* rounds recorded so far *)
  mutable b_phases : phase_event list;  (* reversed *)
  mutable b_decides : (Types.node_id * int) list;  (* reversed *)
  mutable b_honest : int;
  mutable b_byz : int;
  mutable b_dropped : int;
  mutable b_dup : int;
  mutable b_retrans : int;
  mutable b_decided : int;
}

let builder ?(chaos = false) ~protocol ~adversary ~n ~t () =
  {
    b_protocol = protocol;
    b_adversary = adversary;
    b_n = n;
    b_t = t;
    b_chaos = chaos;
    b_rounds = [];
    b_tail = [];
    b_total = 0;
    b_phases = [];
    b_decides = [];
    b_honest = 0;
    b_byz = 0;
    b_dropped = 0;
    b_dup = 0;
    b_retrans = 0;
    b_decided = 0;
  }

(* The builder's fields are mutable but its lists are persistent, so a
   shallow copy is independent of the original. *)
let copy b ~adversary = { b with b_adversary = adversary }

let record_phase b ~round ~node ~phase =
  b.b_phases <- { at_round = round; node; phase } :: b.b_phases

let record_decide b ~round ~node =
  b.b_decides <- (node, round) :: b.b_decides;
  b.b_decided <- b.b_decided + 1

(* All counters are mandatory: the engine calls this once per round, and
   optional-argument wrapping would allocate three [Some] blocks per call
   on an otherwise allocation-free path. *)
let record_round b ~round ~honest_sent ~byz_sent ~dropped ~duplicated
    ~retransmitted ~newly_decided =
  (match b.b_tail with
  | [] -> ()
  | _ :: _ -> invalid_arg "Trace.record_round: the run ended in a quiet tail");
  b.b_total <- round + 1;
  b.b_honest <- b.b_honest + honest_sent;
  b.b_byz <- b.b_byz + byz_sent;
  b.b_dropped <- b.b_dropped + dropped;
  b.b_dup <- b.b_dup + duplicated;
  b.b_retrans <- b.b_retrans + retransmitted;
  b.b_rounds <-
    {
      round;
      honest_sent;
      byz_sent;
      dropped;
      duplicated;
      retransmitted;
      newly_decided = List.sort Int.compare newly_decided;
      decided_total = b.b_decided;
    }
    :: b.b_rounds

(* Quiet tails: a stalled run that the engine fast-forwards ends in
   rounds that send, drop, retransmit and decide nothing, so their
   records depend only on the round, the budget and the decided total.
   Each domain keeps one table of them per (budget, decided total),
   [from.(k)] being the ascending tail that starts at round [k]: the
   tails for one key are suffixes of each other, so the table is filled
   downward on demand, at most [rounds] records per key, and a run takes
   its tail in O(1) once the table reaches its first round.  Records are
   immutable, so runs share them; domain-local storage keeps parallel
   workers apart. *)
type tails = { mutable first : int; from : round_record list array }

let quiet_tails : (int * int, tails) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let quiet_tail ~decided_total ~from ~rounds =
  let table = Domain.DLS.get quiet_tails in
  let t =
    match Hashtbl.find_opt table (rounds, decided_total) with
    | Some t -> t
    | None ->
        let t = { first = rounds; from = Array.make (rounds + 1) [] } in
        Hashtbl.add table (rounds, decided_total) t;
        t
  in
  while t.first > from do
    let round = t.first - 1 in
    t.from.(round) <-
      {
        round;
        honest_sent = 0;
        byz_sent = 0;
        dropped = 0;
        duplicated = 0;
        retransmitted = 0;
        newly_decided = [];
        decided_total;
      }
      :: t.from.(round + 1);
    t.first <- round
  done;
  t.from.(from)

let record_quiet_tail b ~from ~rounds =
  if from < b.b_total then
    invalid_arg "Trace.record_quiet_tail: round already recorded";
  b.b_tail <- quiet_tail ~decided_total:b.b_decided ~from ~rounds;
  b.b_total <- rounds

let snapshot b ~stalled =
  let rounds = List.rev_append b.b_rounds b.b_tail in
  {
    protocol = b.b_protocol;
    adversary = b.b_adversary;
    n = b.b_n;
    t = b.b_t;
    rounds;
    phases = List.rev b.b_phases;
    decide_rounds =
      List.sort
        (fun (n1, r1) (n2, r2) ->
          match Int.compare n1 n2 with 0 -> Int.compare r1 r2 | c -> c)
        (List.rev b.b_decides);
    honest_msgs = b.b_honest;
    byz_msgs = b.b_byz;
    dropped_msgs = b.b_dropped;
    dup_msgs = b.b_dup;
    retrans_msgs = b.b_retrans;
    total_rounds = b.b_total;
    stalled;
    chaos = b.b_chaos;
  }

(* --- queries --- *)

let messages_total s = s.honest_msgs + s.byz_msgs

let decide_round s node = List.assoc_opt node s.decide_rounds

let phases_of s node = List.filter (fun e -> e.node = node) s.phases

(* --- emitters --- *)

let csv_header = "round,honest_sent,byz_sent,newly_decided,decided_total"

let csv_header_chaos =
  "round,honest_sent,byz_sent,dropped,duplicated,retransmitted,\
   newly_decided,decided_total"

let to_csv s =
  let ids l = String.concat ";" (List.map string_of_int l) in
  let line (r : round_record) =
    if s.chaos then
      Fmt.str "%d,%d,%d,%d,%d,%d,%s,%d" r.round r.honest_sent r.byz_sent
        r.dropped r.duplicated r.retransmitted (ids r.newly_decided)
        r.decided_total
    else
      Fmt.str "%d,%d,%d,%s,%d" r.round r.honest_sent r.byz_sent
        (ids r.newly_decided) r.decided_total
  in
  let header = if s.chaos then csv_header_chaos else csv_header in
  String.concat "\n" (header :: List.map line s.rounds) ^ "\n"

let round_to_json ~chaos (r : round_record) =
  Json.Obj
    ([
       ("round", Json.Int r.round);
       ("honest_sent", Json.Int r.honest_sent);
       ("byz_sent", Json.Int r.byz_sent);
     ]
    @ (if chaos then
         [
           ("dropped", Json.Int r.dropped);
           ("duplicated", Json.Int r.duplicated);
           ("retransmitted", Json.Int r.retransmitted);
         ]
       else [])
    @ [
        ("newly_decided", Json.List (List.map (fun i -> Json.Int i) r.newly_decided));
        ("decided_total", Json.Int r.decided_total);
      ])

let to_json s =
  Json.Obj
    ([
       ("protocol", Json.String s.protocol);
       ("adversary", Json.String s.adversary);
       ("n", Json.Int s.n);
       ("t", Json.Int s.t);
       ("total_rounds", Json.Int s.total_rounds);
       ("stalled", Json.Bool s.stalled);
       ("honest_msgs", Json.Int s.honest_msgs);
       ("byz_msgs", Json.Int s.byz_msgs);
     ]
    @ (if s.chaos then
         [
           ("dropped_msgs", Json.Int s.dropped_msgs);
           ("dup_msgs", Json.Int s.dup_msgs);
           ("retrans_msgs", Json.Int s.retrans_msgs);
         ]
       else [])
    @ [
        ( "decide_rounds",
          Json.Obj
            (List.map
               (fun (node, r) -> (string_of_int node, Json.Int r))
               s.decide_rounds) );
        ( "phases",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [
                     ("round", Json.Int e.at_round);
                     ("node", Json.Int e.node);
                     ("phase", Json.String e.phase);
                   ])
               s.phases) );
        ("rounds", Json.List (List.map (round_to_json ~chaos:s.chaos) s.rounds));
      ])
