(* An option (the calligraphic letters of the paper: A, B, C, ...) is an
   element of the voting option domain V.  We back it by an integer so the
   domain can be pre-determined by the subject or generated from inputs. *)

type t = int

let of_int i =
  if i < 0 then invalid_arg "Option_id.of_int: negative id";
  i

let to_int x = x
let equal = Int.equal
let compare = Int.compare

let labels = [| "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" |]

let pp ppf x =
  if x < Array.length labels then Fmt.string ppf labels.(x)
  else Fmt.pf ppf "opt%d" x

let to_string x = Fmt.str "%a" pp x
