(** Voting options (the paper's calligraphic [A], [B], [C] ...).

    An option is an element of the voting option domain [V]; we back it by a
    non-negative integer so the domain can be fixed by the subject or grown
    dynamically from node inputs. *)

type t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val pp : t Fmt.t
(** Prints [A], [B], ... for the first eight options, [optN] beyond. *)

val to_string : t -> string
