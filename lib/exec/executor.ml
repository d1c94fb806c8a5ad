(* Deterministic fan-out with an optional domain pool.

   [map ~count f] evaluates [f 0 .. f (count-1)] into an index-addressed
   array.  Result slots are disjoint, so the claiming order of chunks
   cannot affect the output — the array is identical at every [jobs] and
   [chunk_size] by construction.  Chunking exists for progress reporting
   and as the unit of work claimed by worker domains.

   Parallel execution ([jobs > 1]) is a hand-rolled pool: worker domains
   claim chunk indices from an atomic counter and write their results
   into the chunk's own slots.  Callers that draw from shared state (one
   rng across a table) do so before the fan-out, on the calling domain;
   the shared state a run can reach (Vv_dist's enumeration cache and
   log-factorial table) is domain-safe — see Vv_dist.Cache and
   Multinomial.warm_log_factorial. *)

module Rng = Vv_prelude.Rng

let default_chunk_size = 64

(* Per-instance seed: {!Vv_prelude.Rng.derive}, two independent splitmix64
   steps — the scheme lives in the prelude so other layers (the multishot
   ledger's slot/attempt seeds) derive from the identical function. *)
let derive_seed ~seed i = Rng.derive seed i

(* [jobs = 0] means "all available cores but one". *)
let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Executor: negative jobs";
  if jobs = 0 then max 1 (Domain.recommended_domain_count () - 1) else jobs

type progress = { done_ : int; total : int }

let map ?(chunk_size = default_chunk_size) ?jobs ?on_progress ~count f =
  if chunk_size <= 0 then invalid_arg "Executor.map: chunk_size must be positive";
  if count < 0 then invalid_arg "Executor.map: negative count";
  let jobs = resolve_jobs (Option.value jobs ~default:1) in
  if jobs = 1 || count <= chunk_size then begin
    match on_progress with
    | None -> Array.init count f
    | Some report ->
        (* [Array.init] applies [f] in index order. *)
        Array.init count (fun i ->
            let v = f i in
            let done_ = i + 1 in
            if done_ mod chunk_size = 0 || done_ = count then
              report { done_; total = count };
            v)
  end
  else begin
    let results = Array.make count None in
    let chunks = (count + chunk_size - 1) / chunk_size in
    let next_chunk = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let progress_lock = Mutex.create () in
    let report lo hi =
      match on_progress with
      | None -> ()
      | Some f ->
          ignore (Atomic.fetch_and_add completed (hi - lo));
          (* Serialise callbacks; reading [completed] inside the lock keeps
             the reported counts non-decreasing across calls. *)
          Mutex.protect progress_lock (fun () ->
              f { done_ = Atomic.get completed; total = count })
    in
    let worker () =
      let rec loop () =
        let c = Atomic.fetch_and_add next_chunk 1 in
        if c < chunks then begin
          let lo = c * chunk_size and hi = min count ((c + 1) * chunk_size) in
          for i = lo to hi - 1 do
            results.(i) <- Some (f i)
          done;
          report lo hi;
          loop ()
        end
      in
      loop ()
    in
    let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers;
    Array.map
      (function Some v -> v | None -> assert false (* every slot claimed *))
      results
  end
