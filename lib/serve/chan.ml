(* A non-blocking line channel: the per-connection plumbing of every
   connection in the service, the serve daemon's ({!Server}), the
   follower's upstream link ({!Replica}) and every {!Client} connection.

   Inbound: [read_lines] reads 4 KiB at a time into the free end of one
   contiguous buffer, again while a read fills its 4 KiB, up to 16 reads
   a call: a short request costs one read, and a backlog is taken 64 KiB
   a call.  Only the bytes just read are scanned, and each complete line
   is copied out once; a partial trailing line stays at the front of the
   buffer for the next call, and past [max_line] it marks the channel
   dead.
   Outbound: [enqueue] appends one line and its newline to the
   connection's unsent bytes and makes no syscall; [flush_write] hands
   them all to one [write].  The select loop calls it once per
   connection at the end of each pass, and whenever the fd turns
   writable, so a pass's responses and decisions leave together.  An
   owner may also call it in the middle of a pass: {!Server}'s catchup
   refill does, a chunk at a time, so a long replay leaves while it is
   still being rendered.
   Writes therefore never block the daemon — a consumer that stops
   reading only grows its own unsent bytes, which the loop bounds with
   its slow-consumer policy ({!unsent}).  A {!Client} blocks in [select]
   instead, until its one request is written.

   Every syscall retries [EINTR], treats [EAGAIN]/[EWOULDBLOCK] as "no
   progress", and marks the channel dead on any other [Unix_error] (or on
   EOF) instead of raising — a dying peer must never crash the loop. *)

type t = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;  (* [in_start, in_stop) hold a partial line *)
  mutable in_start : int;
  mutable in_stop : int;
  mutable out : Bytes.t;  (* outbound bytes; [out_ofs, out_len) unsent *)
  mutable out_ofs : int;
  mutable out_len : int;
  mutable alive : bool;
}

(* The size of one read, and of each buffer when a channel opens. *)
let buf_size = 4096

(* A call reads again while a read takes its whole [buf_size], at most
   this often: 64 KiB a call, so a pipelined backlog is taken in as fast
   as one 64 KiB read took it. *)
let max_reads = 16

(* One rule for both buffers: a drained one larger than a call's I/O
   needs — [max_reads] reads in, one 64 KiB [single_write] out — returns
   to [buf_size].  A long line read or a long catchup sent frees its
   buffer, while the 8 KiB a batch ending inside a line grows is kept
   for the next call; an idle connection holds at most 64 KiB a side. *)
let drained buf =
  if Bytes.length buf > max_reads * buf_size then Bytes.create buf_size
  else buf

let of_fd fd =
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Bytes.create buf_size;
    in_start = 0;
    in_stop = 0;
    out = Bytes.create buf_size;
    out_ofs = 0;
    out_len = 0;
    alive = true;
  }

let fd t = t.fd
let alive t = t.alive
let kill t = t.alive <- false
let unsent t = t.out_len - t.out_ofs
let want_write t = t.alive && unsent t > 0

let close t =
  t.alive <- false;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* [Unix.single_write] copies at most 64 KiB a call; what it leaves waits
   for the next call. *)
let rec flush_write t =
  if t.alive && unsent t > 0 then
    match Unix.single_write t.fd t.out t.out_ofs (unsent t) with
    | written ->
        t.out_ofs <- t.out_ofs + written;
        if t.out_ofs = t.out_len then begin
          t.out_ofs <- 0;
          t.out_len <- 0;
          t.out <- drained t.out
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_write t
    | exception Unix.Unix_error (_, _, _) -> t.alive <- false

(* [len] bytes of [buf] from [ofs], moved to the front of a buffer with
   room for [extra] more after them: [buf] itself, or one that doubles
   its size until they fit. *)
let compact buf ofs len extra =
  let cap = ref (Bytes.length buf) in
  while len + extra > !cap do
    cap := 2 * !cap
  done;
  let dst = if !cap > Bytes.length buf then Bytes.create !cap else buf in
  Bytes.blit buf ofs dst 0 len;
  dst

(* Room for [extra] bytes after the unsent ones. *)
let reserve t extra =
  if t.out_len + extra > Bytes.length t.out then begin
    let pending = unsent t in
    t.out <- compact t.out t.out_ofs pending extra;
    t.out_ofs <- 0;
    t.out_len <- pending
  end

let enqueue t line =
  if t.alive then begin
    let len = String.length line in
    reserve t (len + 1);
    Bytes.blit_string line 0 t.out t.out_len len;
    Bytes.set t.out (t.out_len + len) '\n';
    t.out_len <- t.out_len + len + 1
  end

let rec read_available t =
  match Unix.read t.fd t.inbuf t.in_stop buf_size with
  | 0 ->
      t.alive <- false;
      0
  | len -> len
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_available t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  | exception Unix.Unix_error (_, _, _) ->
      t.alive <- false;
      0

(* Room for one read after the partial line. *)
let make_room t =
  if t.in_stop + buf_size > Bytes.length t.inbuf then begin
    let partial = t.in_stop - t.in_start in
    t.inbuf <- compact t.inbuf t.in_start partial buf_size;
    t.in_start <- 0;
    t.in_stop <- partial
  end

(* The longest partial line a channel buffers: request and decision lines
   are a few hundred bytes, so a peer past this is marked dead. *)
let max_line = 1 lsl 20

(* Only the bytes just read are scanned, so a long line costs time linear
   in its length. *)
let read_lines t =
  let lines = ref [] and reads = ref 0 and full = ref true in
  while t.alive && !full && !reads < max_reads do
    make_room t;
    let len = read_available t in
    incr reads;
    full := len = buf_size;
    let stop = t.in_stop + len in
    for i = t.in_stop to stop - 1 do
      if Bytes.unsafe_get t.inbuf i = '\n' then begin
        lines := Bytes.sub_string t.inbuf t.in_start (i - t.in_start) :: !lines;
        t.in_start <- i + 1
      end
    done;
    t.in_stop <- stop
  done;
  if t.in_start = t.in_stop then begin
    t.in_start <- 0;
    t.in_stop <- 0;
    t.inbuf <- drained t.inbuf
  end
  else if t.in_stop - t.in_start > max_line then t.alive <- false;
  List.rev !lines
