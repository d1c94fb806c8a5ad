(* A tally is the count of received votes per option: the |X_i| of the
   paper.  It implements the Sort utility of Algorithm 1 that splits a
   node's view into the top option A_i, runner-up B_i and the rest C_i. *)

module M = Map.Make (Option_id)

type t = int M.t

let empty = M.empty

let add_many t opt k =
  if k < 0 then invalid_arg "Tally.add_many: negative count";
  if k = 0 then t
  else
    M.update opt (function None -> Some k | Some c -> Some (c + k)) t

let add t opt = add_many t opt 1
let of_list opts = List.fold_left add empty opts

let of_counts pairs =
  List.fold_left (fun t (opt, k) -> add_many t opt k) empty pairs

let count t opt = match M.find_opt opt t with None -> 0 | Some c -> c
let total t = M.fold (fun _ c acc -> acc + c) t 0
let distinct t = M.cardinal t
let support t = M.bindings t
let is_empty t = M.is_empty t
let merge a b = M.union (fun _ x y -> Some (x + y)) a b

let ranked ~tie t =
  List.sort (Tie_break.compare_ranked tie) (M.bindings t)

type top = {
  a : Option_id.t;
  a_count : int;
  b : Option_id.t option;
  b_count : int;
  c_count : int;
}

let top ~tie t =
  match ranked ~tie t with
  | [] -> None
  | [ (a, a_count) ] -> Some { a; a_count; b = None; b_count = 0; c_count = 0 }
  | (a, a_count) :: (b, b_count) :: rest ->
      let c_count = List.fold_left (fun acc (_, c) -> acc + c) 0 rest in
      Some { a; a_count; b = Some b; b_count; c_count }

let plurality ~tie t =
  match top ~tie t with None -> None | Some { a; _ } -> Some a

let gap ~tie t =
  match top ~tie t with
  | None -> None
  | Some { a_count; b_count; _ } -> Some (a_count - b_count)
