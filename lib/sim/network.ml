(* Chaos network substrate (see network.mli for the model).

   The substrate sits between the engine's send step and the delay layer:
   every delivery is offered to [transit_i] at its send round, and the engine
   re-checks [cut] at the computed arrival round so messages in flight into
   a partition or outage window are lost.  All decisions are driven by a
   chaos-private RNG seeded from [seed] alone; because the engine offers
   deliveries in a deterministic order, a [(t, seed)] pair replays the same
   fault pattern bit-for-bit.

   Guarded draws: the RNG is consulted only for axes with strictly
   positive intensity, and never for self-deliveries or already-cut links.
   Adding a zero axis to a plan therefore cannot shift the decisions made
   for the others. *)

type window = { from_round : int; until_round : int }

type partition = { window : window; isolated : Types.node_id list }

type outage = { node : Types.node_id; window : window }

type t = {
  drop : float;
  duplicate : float;
  jitter : int;
  partitions : partition list;
  outages : outage list;
  seed : int;
}

let none =
  { drop = 0.0; duplicate = 0.0; jitter = 0; partitions = []; outages = [];
    seed = 0 }

let validate_window what { from_round; until_round } =
  if from_round < 0 then
    invalid_arg (Fmt.str "Network.make: %s window starts before round 0" what);
  if until_round < from_round then
    invalid_arg (Fmt.str "Network.make: %s window ends before it starts" what)

let make ?(drop = 0.0) ?(duplicate = 0.0) ?(jitter = 0) ?(partitions = [])
    ?(outages = []) ?(seed = 0xc4a05) () =
  let prob what p =
    if not (p >= 0.0 && p < 1.0) then
      invalid_arg (Fmt.str "Network.make: %s must be in [0, 1)" what)
  in
  prob "drop" drop;
  prob "duplicate" duplicate;
  if jitter < 0 then invalid_arg "Network.make: jitter must be >= 0";
  List.iter (fun (p : partition) -> validate_window "partition" p.window)
    partitions;
  List.iter
    (fun (o : outage) ->
      validate_window "outage" o.window;
      if o.node < 0 then invalid_arg "Network.make: outage node out of range")
    outages;
  List.iter
    (fun (p : partition) ->
      List.iter
        (fun id ->
          if id < 0 then
            invalid_arg "Network.make: partition node out of range")
        p.isolated)
    partitions;
  { drop; duplicate; jitter; partitions; outages; seed }

let is_none t =
  t.drop = 0.0 && t.duplicate = 0.0 && t.jitter = 0 && t.partitions = []
  && t.outages = []

let window_active w ~round = round >= w.from_round && round < w.until_round

(* Explicit recursion instead of [List.exists fun ...]: the closures would
   capture (round, src, dst) and so allocate on every call, putting heap
   traffic on the engine's per-delivery hot path even for an inert
   substrate (test_perf.ml pins the inert path at zero words). *)
let rec partition_cut ~round ~src ~dst = function
  | [] -> false
  | (p : partition) :: rest ->
      (window_active p.window ~round
      && List.mem src p.isolated <> List.mem dst p.isolated)
      || partition_cut ~round ~src ~dst rest

let rec outage_cut ~round ~src ~dst = function
  | [] -> false
  | (o : outage) :: rest ->
      (window_active o.window ~round && (o.node = src || o.node = dst))
      || outage_cut ~round ~src ~dst rest

let cut t ~round ~src ~dst =
  src <> dst
  && (partition_cut ~round ~src ~dst t.partitions
     || outage_cut ~round ~src ~dst t.outages)

let rng t = Vv_prelude.Rng.create (0x1dea7 lxor (t.seed * 0x9e3779b9))

let extra_delay t rng =
  if t.jitter = 0 then 0 else Vv_prelude.Rng.int rng (t.jitter + 1)

let dropped_i = -1

(* One send-time verdict, packed so a chaos delivery costs zero
   allocations.  Layout: [extra_delay lsl 1 lor duplicate]; [dropped_i]
   for a destroyed delivery. *)
let transit_i t rng ~round ~src ~dst =
  if src = dst then 0
  else if cut t ~round ~src ~dst then dropped_i
  else if t.drop > 0.0 && Vv_prelude.Rng.float rng < t.drop then dropped_i
  else
    let extra = extra_delay t rng in
    let duplicate =
      t.duplicate > 0.0 && Vv_prelude.Rng.float rng < t.duplicate
    in
    (extra lsl 1) lor (if duplicate then 1 else 0)
