(* Network topologies for the wireless (local broadcast) setting.

   The paper's Algorithm 4 assumes a complete communication graph; real
   radio deployments (UAV swarms, vehicle platoons) are multi-hop.  This
   module builds the standard test topologies and the graph metrics the
   multi-hop protocols need (diameter for wait windows, residual
   connectivity for crash resilience). *)

type t = Vv_sim.Types.node_id list array

let size (t : t) = Array.length t

let neighbours (t : t) u = t.(u)

let degree (t : t) u = List.length t.(u)

let min_degree t =
  Array.fold_left (fun acc l -> min acc (List.length l)) max_int t

(* --- constructors (all undirected, validated by Config.make later) --- *)

let add_edge adj u v =
  if u <> v && not (List.mem v adj.(u)) then begin
    adj.(u) <- v :: adj.(u);
    adj.(v) <- u :: adj.(v)
  end

let normalise adj =
  Array.map (fun l -> List.sort_uniq compare l) adj

let complete n =
  if n <= 0 then invalid_arg "Topology.complete";
  Array.init n (fun u -> List.filter (fun v -> v <> u) (List.init n Fun.id))

let line n =
  if n <= 0 then invalid_arg "Topology.line";
  let adj = Array.make n [] in
  for u = 0 to n - 2 do
    add_edge adj u (u + 1)
  done;
  normalise adj

(* Ring where each node hears its k nearest neighbours on each side. *)
let ring ?(k = 1) n =
  if n <= 0 || k < 1 then invalid_arg "Topology.ring";
  let adj = Array.make n [] in
  for u = 0 to n - 1 do
    for d = 1 to min k (n - 1) do
      add_edge adj u ((u + d) mod n)
    done
  done;
  normalise adj

(* w x h grid, 4-neighbourhood; node (x, y) has id y*w + x. *)
let grid ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Topology.grid";
  let n = w * h in
  let adj = Array.make n [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let u = (y * w) + x in
      if x + 1 < w then add_edge adj u (u + 1);
      if y + 1 < h then add_edge adj u (u + w)
    done
  done;
  normalise adj

(* Unit-square random geometric graph: nodes hear each other within
   [radius].  Deterministic from the seed. *)
let random_geometric ~n ~radius ~seed =
  if n <= 0 || radius <= 0.0 then invalid_arg "Topology.random_geometric";
  let rng = Vv_prelude.Rng.create seed in
  let pos = Array.init n (fun _ ->
      let x = Vv_prelude.Rng.float rng in
      let y = Vv_prelude.Rng.float rng in
      (x, y))
  in
  let adj = Array.make n [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let xu, yu = pos.(u) and xv, yv = pos.(v) in
      let d2 = ((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0) in
      if d2 <= radius *. radius then add_edge adj u v
    done
  done;
  normalise adj

let of_edges ~n edges =
  if n <= 0 then invalid_arg "Topology.of_edges";
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Topology.of_edges: endpoint out of range";
      add_edge adj u v)
    edges;
  normalise adj

(* --- metrics --- *)

(* BFS distances from [src], skipping [removed] nodes; -1 = unreachable. *)
let distances ?(removed = []) (t : t) src =
  let n = size t in
  let dist = Array.make n (-1) in
  if not (List.mem src removed) then begin
    dist.(src) <- 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) < 0 && not (List.mem v removed) then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        t.(u)
    done
  end;
  dist

let connected ?(removed = []) t =
  let n = size t in
  let alive = List.filter (fun u -> not (List.mem u removed)) (List.init n Fun.id) in
  match alive with
  | [] -> true
  | src :: _ ->
      let dist = distances ~removed t src in
      List.for_all (fun u -> dist.(u) >= 0) alive

let diameter t =
  let n = size t in
  let best = ref 0 in
  for u = 0 to n - 1 do
    let dist = distances t u in
    Array.iter
      (fun d ->
        if d < 0 then invalid_arg "Topology.diameter: graph is disconnected"
        else if d > !best then best := d)
      dist
  done;
  !best
