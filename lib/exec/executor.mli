(** Deterministic fan-out over an optional domain pool: the one path every
    campaign, the checker and the multishot engine run through.

    [map] fills an index-addressed array, one slot per index, so its
    result is identical at every [jobs] and [chunk_size] by construction.
    Chunking is an implementation knob (progress reporting, the unit of
    work a worker domain claims), never a semantic one. Callers that
    share state across indices — e.g. drawing inputs from one rng — draw
    on the calling domain, in index order, before the fan-out; [f] itself
    must be domain-safe and independent of evaluation order. The shared
    state reachable from a protocol run ({!Vv_dist.Cache}, the
    log-factorial table) is domain-safe. *)

type progress = { done_ : int; total : int }

val derive_seed : seed:int -> int -> int
(** The per-instance seed for index [i] under base [seed]: two independent
    splitmix64 steps (hash the base seed, fold in the index, hash again),
    so distinct [(seed, index)] pairs do not collide under simple xor
    algebra. Exposed so tests and experiment code can reproduce a single
    instance of a batch in isolation. *)

val map :
  ?chunk_size:int ->
  ?jobs:int ->
  ?on_progress:(progress -> unit) ->
  count:int ->
  (int -> 'a) ->
  'a array
(** [map ~count f] evaluates [f 0 .. f (count - 1)] into an
    index-addressed array. [?jobs] (default [1]) sets the number of
    worker domains; [0] means all available cores but one; the array is
    identical at every value. With one domain, [f] is applied in index
    order. Chunks of [chunk_size] (default 64) indices are the unit a
    worker claims; [on_progress] fires after every completed chunk with
    non-decreasing [done_] counts (exactly [chunk_size] apart only on one
    domain). Raises [Invalid_argument] when [chunk_size <= 0],
    [jobs < 0] or [count < 0]. *)
