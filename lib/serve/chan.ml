(* A non-blocking line channel: the per-connection plumbing shared by the
   serve daemon ({!Server}) and the follower daemon ({!Replica}).

   Inbound: [read_lines] reads into a 4 KiB buffer, again while a read
   fills it, up to 16 reads a call: a short request costs one read, and
   a backlog is taken 64 KiB a call.  It returns the complete lines,
   keeping a partial trailing line for the next call; a partial line
   past [max_line] marks the channel dead.
   Outbound: [enqueue] appends one line and its newline to the
   connection's unsent bytes and makes no syscall; [flush_write] hands
   them all to one [write].  The select loop calls it once per
   connection at the end of each pass, and whenever the fd turns
   writable, so a pass's responses and decisions leave together.
   Writes therefore never block the daemon — a consumer that stops
   reading only grows its own unsent bytes, which the loop bounds with
   its slow-consumer policy ({!unsent}).

   Every syscall retries [EINTR], treats [EAGAIN]/[EWOULDBLOCK] as "no
   progress", and marks the channel dead on any other [Unix_error] (or on
   EOF) instead of raising — a dying peer must never crash the loop. *)

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes read but not yet terminated by '\n' *)
  scratch : Bytes.t;  (* per-channel read buffer: channels cross domains *)
  mutable out : Bytes.t;  (* outbound bytes; [out_ofs, out_len) unsent *)
  mutable out_ofs : int;
  mutable out_len : int;
  mutable alive : bool;
}

let read_size = 4096

(* A call reads again while a read fills [scratch], at most this often:
   64 KiB a call, so a pipelined backlog is taken in as fast as one
   64 KiB read took it. *)
let max_reads = 16

(* The outbound buffer's size when nothing is unsent: a drained buffer
   that grew for a catchup shrinks back to it. *)
let out_size = 4096

let of_fd fd =
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Buffer.create 256;
    scratch = Bytes.create read_size;
    out = Bytes.create out_size;
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
          if Bytes.length t.out > out_size then t.out <- Bytes.create out_size
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_write t
    | exception Unix.Unix_error (_, _, _) -> t.alive <- false

(* Room for [extra] bytes after the unsent ones, which move to the front;
   the buffer doubles until they fit. *)
let reserve t extra =
  if t.out_len + extra > Bytes.length t.out then begin
    let pending = unsent t in
    let cap = ref (Bytes.length t.out) in
    while pending + extra > !cap do
      cap := 2 * !cap
    done;
    let out = if !cap > Bytes.length t.out then Bytes.create !cap else t.out in
    Bytes.blit t.out t.out_ofs out 0 pending;
    t.out <- out;
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
  match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 ->
      t.alive <- false;
      0
  | len -> len
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_available t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  | exception Unix.Unix_error (_, _, _) ->
      t.alive <- false;
      0

(* The longest partial line a channel buffers: request and decision lines
   are a few hundred bytes, so a peer past this is marked dead. *)
let max_line = 1 lsl 20

(* Only the bytes just read are scanned, so a long line costs time linear
   in its length. *)
let read_lines t =
  if not t.alive then []
  else begin
    let lines = ref [] and reads = ref 0 and full = ref true in
    while !full && !reads < max_reads do
      let len = read_available t in
      incr reads;
      full := len = Bytes.length t.scratch;
      let start = ref 0 in
      for i = 0 to len - 1 do
        if Bytes.get t.scratch i = '\n' then begin
          Buffer.add_subbytes t.inbuf t.scratch !start (i - !start);
          lines := Buffer.contents t.inbuf :: !lines;
          Buffer.clear t.inbuf;
          start := i + 1
        end
      done;
      Buffer.add_subbytes t.inbuf t.scratch !start (len - !start)
    done;
    if Buffer.length t.inbuf > max_line then t.alive <- false;
    List.rev !lines
  end
