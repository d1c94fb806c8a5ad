(* Static description of one simulated distributed system: size, declared
   tolerance t, the actual fault plan of every node, the communication
   model, and the delay model. *)

type t = {
  n : int;
  t_max : int;  (** the tolerance t, known to every node *)
  faults : Fault.t array;  (** length n; which nodes actually misbehave *)
  compiled : Fault.compiled array;
      (** per-node delivery predicates precomputed from [faults] (crash
          [deliver_to] lists as bool arrays) — the engine's O(1) hot path *)
  comm : Types.comm_model;
  delay : Delay.t;
  max_rounds : int;
  seed : int;
  topology : Types.node_id list array option;
      (** adjacency lists (undirected, no self-loops); [None] = complete
          graph.  A broadcast reaches the sender's neighbours (plus the
          sender itself); under [Local_broadcast] the radio constraint is
          enforced per neighbourhood. *)
  network : Network.t;  (** chaos substrate; [Network.none] = reliable links *)
  retransmit : Retransmit.t option;  (** [None] = no retransmission (default) *)
  reach_arr : Types.node_id array array;
      (** per-source broadcast recipients (neighbourhood plus self,
          ascending), precomputed so the engine's expansion loop never
          allocates; on the complete graph every slot shares one array *)
  reach_list : Types.node_id list array;  (** same, as cached lists *)
}

let validate_topology ~n adj =
  if Array.length adj <> n then
    invalid_arg "Config.make: topology must have length n";
  Array.iteri
    (fun u neighbours ->
      List.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg "Config.make: topology neighbour out of range";
          if v = u then invalid_arg "Config.make: topology self-loop";
          if not (List.mem u adj.(v)) then
            invalid_arg "Config.make: topology must be symmetric")
        neighbours;
      if List.length (List.sort_uniq Int.compare neighbours) <> List.length neighbours
      then invalid_arg "Config.make: duplicate topology neighbour")
    adj

let validate_network ~n (net : Network.t) =
  let node what id =
    if id < 0 || id >= n then
      invalid_arg (Fmt.str "Config.make: %s node %d out of range" what id)
  in
  List.iter
    (fun (p : Network.partition) ->
      List.iter (node "partition") p.Network.isolated)
    net.Network.partitions;
  List.iter
    (fun (o : Network.outage) -> node "outage" o.Network.node)
    net.Network.outages

let make ?faults ?(comm = Types.Point_to_point) ?(delay = Delay.synchronous)
    ?(max_rounds = 200) ?(seed = 0x5eed) ?topology
    ?(network = Network.none) ?retransmit ~n ~t_max () =
  if n <= 0 then invalid_arg "Config.make: n must be positive";
  if t_max < 0 then invalid_arg "Config.make: t must be non-negative";
  Delay.validate delay;
  (* Probe user-supplied schedules up front so a malformed one fails here,
     naming its (round, src, dst), instead of raising mid-run. *)
  Delay.validate_schedule delay ~n ~max_rounds;
  Option.iter (validate_topology ~n) topology;
  validate_network ~n network;
  let faults =
    match faults with
    | None -> Array.make n Fault.Honest
    | Some f ->
        if Array.length f <> n then
          invalid_arg "Config.make: faults array must have length n";
        Array.copy f
  in
  Array.iter
    (function
      | Fault.Crash { at_round; deliver_to } ->
          if at_round < 0 then invalid_arg "Config.make: negative crash round";
          List.iter
            (fun d ->
              if d < 0 || d >= n then
                invalid_arg "Config.make: crash deliver_to out of range")
            deliver_to
      | Fault.Honest | Fault.Byzantine -> ())
    faults;
  let compiled = Array.map (Fault.compile ~n) faults in
  (* Broadcast recipients per source (neighbourhood plus self, ascending),
     compiled once: the engine's expansion loop indexes [reach_arr] and the
     adversary view hands out the cached lists, so neither allocates. *)
  let reach_arr, reach_list =
    match topology with
    | None ->
        let all = Array.init n Fun.id in
        let all_l = Array.to_list all in
        (Array.make n all, Array.make n all_l)
    | Some adj ->
        let arrs =
          Array.mapi
            (fun src neighbours ->
              let a = Array.of_list (src :: neighbours) in
              Array.sort Int.compare a;
              a)
            adj
        in
        (arrs, Array.map Array.to_list arrs)
  in
  { n; t_max; faults; compiled; comm; delay; max_rounds; seed;
    topology = Option.map Array.copy topology; network; retransmit;
    reach_arr; reach_list }

(* Recipients of a broadcast from [src]: its neighbourhood plus itself. *)
let reach cfg src = cfg.reach_list.(src)

let ids_where cfg pred =
  let acc = ref [] in
  for i = cfg.n - 1 downto 0 do
    if pred cfg.faults.(i) then acc := i :: !acc
  done;
  !acc

let honest_ids cfg = ids_where cfg Fault.is_honest
let byzantine_ids cfg = ids_where cfg Fault.is_byzantine

let faulty_count cfg = cfg.n - List.length (honest_ids cfg)

let fault_of cfg id =
  if id < 0 || id >= cfg.n then invalid_arg "Config.fault_of: id out of range";
  cfg.faults.(id)

(* O(1) crash-filter for the engine: the compiled form of
   [Fault.delivers (fault_of cfg src)]. *)
let delivers cfg ~src ~round ~dst =
  Fault.compiled_delivers cfg.compiled.(src) ~round ~dst

let within_tolerance cfg = faulty_count cfg <= cfg.t_max

(* Convenience: mark the given nodes Byzantine, all others honest. *)
let with_byzantine ?comm ?delay ?max_rounds ?seed ?topology ?network
    ?retransmit ~n ~t_max byz () =
  let faults = Array.make n Fault.Honest in
  List.iter
    (fun id ->
      if id < 0 || id >= n then
        invalid_arg "Config.with_byzantine: id out of range";
      faults.(id) <- Fault.Byzantine)
    byz;
  make ~faults ?comm ?delay ?max_rounds ?seed ?topology ?network ?retransmit
    ~n ~t_max ()
