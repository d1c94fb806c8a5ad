(* Exponential-Information-Gathering Byzantine Broadcast (unauthenticated).

   Round 0: the designated sender broadcasts its value.  Rounds 1..t+1 run
   the classic EIG exchange: every node relays what it has heard along
   every repetition-free path, building a tree whose node sigma@[q] stores
   "q said that sigma said ... the sender's value is v".  After t+2 local
   rounds each node resolves the tree bottom-up by strict majority
   (defaulting to bottom) and outputs resolve([]).

   Achieves the tight unauthenticated bound n > 3t in t+1 exchange rounds,
   at the cost of exponentially many message entries — acceptable at the
   simulation sizes of this repository, and guarded by [max_tree_size]. *)

open Vv_sim

let name = "eig"

let max_tree_size = 500_000

type msg =
  | Init of int  (* the sender's round-0 value *)
  | Report of { path : Types.node_id list; value : int }

let equal_msg a b =
  match (a, b) with
  | Init u, Init v -> Int.equal u v
  | Report a, Report b ->
      List.equal Int.equal a.path b.path && Int.equal a.value b.value
  | (Init _ | Report _), _ -> false

(* Init before Report; Report by path (lexicographic, shorter-is-less like
   the structural order), then value — the deterministic relay order. *)
let compare_msg a b =
  match (a, b) with
  | Init u, Init v -> Int.compare u v
  | Init _, Report _ -> -1
  | Report _, Init _ -> 1
  | Report a, Report b -> (
      match List.compare Int.compare a.path b.path with
      | 0 -> Int.compare a.value b.value
      | c -> c)

(* Tree keys are repetition-free paths packed into an int: element i of the
   path (stored as id+1 so that 0 never appears in an occupied slot) sits at
   bit offset i*kbits, where kbits is the bit width of n.  Packed keys make
   the tree an int-keyed Hashtbl — generic hashing of list keys walked the
   whole path per lookup and dominated EIG's profile. *)
let key_bits n =
  let rec go b = if n lsr b = 0 then b else go (b + 1) in
  go 1

(* Packed path plus the occupancy bitmask of its elements. *)
let pack ~kbits path =
  let rec go packed mask shift = function
    | [] -> (packed, mask)
    | q :: rest ->
        go
          (packed lor ((q + 1) lsl shift))
          (mask lor (1 lsl q))
          (shift + kbits) rest
  in
  go 0 0 0 path

(* The tree maps packed paths (in relay order, most recent relay last) to
   values.  When every packed key fits 16 bits — all the simulation sizes
   this repository sweeps — the tree is a direct-indexed array with a
   presence byte per slot (values are adversary-controlled ints, so no
   in-band absent marker exists); larger configurations fall back to the
   int-keyed Hashtbl. *)
type tree =
  | Dense of int array * Bytes.t
  | Sparse of (int, int) Hashtbl.t

let tree_create ~bits =
  if bits <= 16 then
    Dense (Array.make (1 lsl bits) 0, Bytes.make (1 lsl bits) '\000')
  else Sparse (Hashtbl.create 64)

let tree_mem tree key =
  match tree with
  | Dense (_, present) -> Bytes.unsafe_get present key <> '\000'
  | Sparse h -> Hashtbl.mem h key

let tree_add tree key v =
  match tree with
  | Dense (vals, present) ->
      Array.unsafe_set vals key v;
      Bytes.unsafe_set present key '\001'
  | Sparse h -> Hashtbl.add h key v

(* The value at [key], or [bottom] when the slot was never filled. *)
let tree_find tree key =
  match tree with
  | Dense (vals, present) ->
      if Bytes.unsafe_get present key <> '\000' then Array.unsafe_get vals key
      else Bb_intf.bottom
  | Sparse h -> (
      match Hashtbl.find_opt h key with
      | Some v -> v
      | None -> Bb_intf.bottom)

type state = {
  sender : Types.node_id;
  tree : tree;
  own : int;  (* this node's level-0 value w_i *)
  resolved : int option;
}

(* Number of repetition-free paths of length <= t+1 over n ids. *)
let tree_size ~n ~t =
  let rec go len acc product =
    if len > t + 1 then acc
    else
      let product = product * (n - len + 1) in
      go (len + 1) (acc + product) product
  in
  go 1 1 1

let rounds ~n:_ ~t = t + 2

let start ~n ~t ~me ~sender ~value ~outbox =
  if tree_size ~n ~t > max_tree_size then
    invalid_arg "Eig.start: EIG tree too large for these n, t";
  (* Packed keys need every path (length <= t+1) to fit one int.  The
     [max_tree_size] guard already forces tiny n, t; this is a backstop. *)
  if key_bits n * (t + 1) > 62 then
    invalid_arg "Eig.start: packed tree keys would overflow for these n, t";
  let st =
    {
      sender;
      tree = tree_create ~bits:(key_bits n * (t + 1));
      own = Bb_intf.bottom;
      resolved = None;
    }
  in
  match value with
  | Some v when me = sender ->
      if v < 0 then invalid_arg "Eig.start: negative value";
      Outbox.broadcast outbox (Init v);
      { st with own = v }
  | None when me <> sender -> st
  | Some _ -> invalid_arg "Eig.start: value supplied at non-sender"
  | None -> invalid_arg "Eig.start: sender has no value"

(* Bottom-up majority resolution over packed keys: [packed]/[len]/[mask]
   describe the current path; children are the ids absent from [mask].
   Strict majority is unique when it exists, so the O(children²) count is
   order-independent — and, at these sizes, cheaper than a counts table. *)
let rec resolve ~n ~t ~kbits tree packed len mask =
  if len = t + 1 then tree_find tree packed
  else begin
    let total = n - len in
    let votes = Array.make total Bb_intf.bottom in
    let k = ref 0 in
    for q = 0 to n - 1 do
      if mask land (1 lsl q) = 0 then begin
        votes.(!k) <-
          resolve ~n ~t ~kbits tree
            (packed lor ((q + 1) lsl (kbits * len)))
            (len + 1)
            (mask lor (1 lsl q));
        incr k
      end
    done;
    let winner = ref Bb_intf.bottom in
    (try
       for i = 0 to total - 1 do
         let v = votes.(i) in
         let c = ref 0 in
         for j = 0 to total - 1 do
           if Int.equal votes.(j) v then incr c
         done;
         if 2 * !c > total then begin
           winner := v;
           raise Exit
         end
       done
     with Exit -> ());
    !winner
  end

let step ~n ~t ~me st ~lround ~inbox ~outbox =
  if lround = 1 then begin
    (* Adopt the sender's value and open the exchange with a root report. *)
    let own = ref st.own in
    for i = 0 to inbox.Bb_intf.len - 1 do
      match inbox.Bb_intf.msgs.(i) with
      | Init v when inbox.Bb_intf.srcs.(i) = st.sender && v >= 0 -> own := v
      | Init _ | Report _ -> ()
    done;
    let own = !own in
    Outbox.broadcast outbox (Report { path = []; value = own });
    { st with own }
  end
  else if lround <= t + 2 then begin
    (* Accept level lround-1 entries: Report(path, v) from q with
       |path| = lround-2 and q not already on the path.  Entries of this
       level cannot pre-exist (earlier rounds accepted shorter paths
       only), so the fresh list collects exactly the level completed this
       round — the relay set — without re-folding the whole tree. *)
    let want_len = lround - 2 in
    let kbits = key_bits n in
    let fresh = ref [] in
    for i = 0 to inbox.Bb_intf.len - 1 do
      match inbox.Bb_intf.msgs.(i) with
      | Report { path; value } when List.compare_length_with path want_len = 0
        ->
          let src = inbox.Bb_intf.srcs.(i) in
          let packed, mask = pack ~kbits path in
          if mask land (1 lsl src) = 0 then begin
            let key = packed lor ((src + 1) lsl (kbits * want_len)) in
            if not (tree_mem st.tree key) then begin
              tree_add st.tree key value;
              if mask land (1 lsl me) = 0 && src <> me then
                fresh := Report { path = path @ [ src ]; value } :: !fresh
            end
          end
      | Report _ | Init _ -> ()
    done;
    if lround <= t + 1 then
      (* Relay the freshly-completed level in the deterministic message
         order (the arrival order is delivery-dependent, so sort). *)
      List.iter (Outbox.broadcast outbox) (List.sort compare_msg !fresh);
    let resolved =
      if lround = t + 2 then Some (resolve ~n ~t ~kbits st.tree 0 0 0)
      else st.resolved
    in
    { st with resolved }
  end
  else st

let result st =
  match st.resolved with Some v -> v | None -> st.own

(* The tree is the only mutable part of the state. *)
let copy st =
  let tree =
    match st.tree with
    | Dense (vals, present) -> Dense (Array.copy vals, Bytes.copy present)
    | Sparse h -> Sparse (Hashtbl.copy h)
  in
  { st with tree }
