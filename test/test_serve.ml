(* End-to-end tests of the serve daemon: a real server domain, real Unix
   sockets, multiple clients, snapshot restart and catch-up. *)

module Json = Vv_prelude.Json
module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine
module Rpc = Vv_serve.Rpc
module Server = Vv_serve.Server
module Replica = Vv_serve.Replica
module Client = Vv_serve.Client

let o = Oid.of_int
let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let cfg ?(seed = 0x5e7e) () =
  Ledger.config ~byzantine:[ 7; 8 ]
    ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6))
    ~n:9 ~t:2 ~seed ()

let mixed_inputs i =
  if i mod 3 = 2 then List.map o [ 0; 0; 0; 1; 1; 2; 3 ] @ [ o 0; o 0 ]
  else
    List.init 7 (fun j -> if j = 6 then o ((i + 1) mod 3) else o (i mod 3))
    @ [ o 0; o 0 ]

let fresh_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "%s/vv-test-serve-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !counter

(* Boot a daemon on a fresh socket, run [f path], always join the server
   (f is responsible for sending shutdown). *)
let with_server ?(path = fresh_path ()) ?batch ?jobs ?snapshot ?max_outq
    ?sndbuf f =
  let listen = Server.listen_unix path in
  let daemon =
    Domain.spawn (fun () ->
        Server.serve ?batch ?jobs ?snapshot ?max_outq ?sndbuf ~listen (cfg ()))
  in
  let result = f path in
  let outcome = Domain.join daemon in
  Unix.close listen;
  if Sys.file_exists path then Sys.remove path;
  (result, outcome)

(* --- rpc parsing --- *)

let negative_submit =
  {|{"id":1,"method":"submit","params":{"subject":1,"inputs":[-1,0,0,0]}}|}

let test_rpc_parse () =
  (match Rpc.parse {|{"id":7,"method":"submit","params":{"subject":3,"inputs":[0,1,0]}}|} with
  | Ok (Rpc.Submit { id; subject; inputs }) ->
      check_bool "id echoed" true (id = Json.Int 7);
      check_int "subject" 3 subject;
      check_int "arity" 3 (List.length inputs)
  | _ -> Alcotest.fail "submit should parse");
  (match Rpc.parse {|{"id":1,"method":"catchup"}|} with
  | Ok (Rpc.Catchup { from; _ }) -> check_int "default from" 0 from
  | _ -> Alcotest.fail "catchup should parse");
  check_bool "unknown method rejected" true
    (Result.is_error (Rpc.parse {|{"id":1,"method":"frobnicate"}|}));
  check_bool "non-object rejected" true (Result.is_error (Rpc.parse "[1,2]"));
  check_bool "bad inputs rejected" true
    (Result.is_error
       (Rpc.parse {|{"id":1,"method":"submit","params":{"subject":1,"inputs":["a"]}}|}));
  check_bool "negative option id rejected" true
    (Result.is_error (Rpc.parse negative_submit))

(* Outside input never raises: arbitrary strings, and valid request lines
   with bytes overwritten, inserted or deleted. *)
let prop_parsers_never_raise =
  let valid =
    [
      {|{"id":7,"method":"submit","params":{"subject":3,"inputs":[0,1,0]}}|};
      {|{"id":"x","method":"catchup","params":{"from":12}}|};
      {|{"id":1,"method":"status"}|};
      {|{"method":"decision","params":{"index":3,"slot":0,"lane":3}}|};
      negative_submit;
    ]
  in
  let mutate line =
    QCheck.Gen.(
      let* edits = int_range 1 4 in
      let rec go line k =
        if k = 0 then return line
        else
          let len = String.length line in
          let* pos = int_bound len in
          let* byte = char in
          let* op = int_bound 2 in
          let line =
            match op with
            | 0 when pos < len ->
                String.mapi (fun i c -> if i = pos then byte else c) line
            | 1 ->
                String.sub line 0 pos ^ String.make 1 byte
                ^ String.sub line pos (len - pos)
            | _ when pos < len ->
                String.sub line 0 pos ^ String.sub line (pos + 1) (len - pos - 1)
            | _ -> line
          in
          go line (k - 1)
      in
      go line edits)
  in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (1, string_size (int_bound 64));
          (3, oneofl valid >>= mutate);
        ])
  in
  QCheck.Test.make ~count:2000
    ~name:"Rpc.parse, Json.of_string: Ok or Error, never raise"
    (QCheck.make ~print:String.escaped gen) (fun line ->
      (match Json.of_string line with Ok _ | Error _ -> ());
      (match Rpc.parse line with Ok _ | Error _ -> ());
      true)

let test_rpc_decision_roundtrip () =
  let slot = Ledger.compute (cfg ()) ~index:5 ~subject:42 (mixed_inputs 0) in
  (match Rpc.decision_of_line (Rpc.decision ~batch:4 slot) with
  | Some slot' -> check_bool "slot round-trips the wire" true (slot = slot')
  | None -> Alcotest.fail "decision line should reconstruct");
  (* A follower's upstream line with a negative option id is refused,
     not raised out of [Oid.of_int]. *)
  check_bool "negative decision refused" true
    (Rpc.decision_of_line
       {|{"method":"decision","params":{"index":0,"subject":0,"decision":-1,"speaker":0,"attempts":1,"valid":true,"rounds_total":1}}|}
    = None)

(* --- end-to-end --- *)

let test_load_matches_local () =
  let reqs = List.init 17 (fun i -> (i, mixed_inputs i)) in
  let (report : Client.report), outcome =
    with_server ~batch:4 ~jobs:2 (fun path ->
        let conns =
          List.init 3 (fun _ -> Client.connect_unix ~retry_for:10. path)
        in
        let r =
          match Client.run_load ~shutdown:true ~conns reqs with
          | Ok r -> r
          | Error msg -> Alcotest.failf "run_load: %s" msg
        in
        List.iter Client.close conns;
        r)
  in
  check_int "all submitted" 17 report.Client.submitted;
  check_int "all decided" 17 (List.length report.Client.decisions);
  check_bool "no errors" true (report.Client.errors = []);
  check_int "server height" 17 outcome.Server.height;
  check_int "server saw the pool" 3 outcome.Server.served_clients;
  (* The socket path changes nothing: same log as an in-process engine. *)
  let expected, _ = Engine.run ~batch:4 ~jobs:1 (cfg ()) reqs in
  check_bool "socket == local engine" true (report.Client.decisions = expected)

let test_snapshot_restart_catchup () =
  let snapshot = Filename.temp_file "vv-serve" ".snap" in
  Sys.remove snapshot;
  let first = List.init 8 (fun i -> (i, mixed_inputs i)) in
  let second = List.init 6 (fun i -> (i + 8, mixed_inputs (i + 8))) in
  (* First life: commit 8 positions, shut down. *)
  let _, outcome1 =
    with_server ~batch:4 ~snapshot (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        (match Client.run_load ~shutdown:true ~conns:[ conn ] first with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "first life: %s" msg);
        Client.close conn)
  in
  check_int "first life height" 8 outcome1.Server.height;
  (* Second life: resumes at 8, serves catch-up from 0, extends to 14. *)
  let catchup_count, outcome2 =
    with_server ~batch:4 ~snapshot (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        Client.send conn
          {|{"id":"cu","method":"catchup","params":{"from":0}}|};
        let replayed = ref 0 in
        let rec drain () =
          match Client.recv_line ~timeout:10. conn with
          | None -> Alcotest.fail "catch-up stream ended early"
          | Some line -> (
              match Rpc.decision_of_line line with
              | Some _ ->
                  incr replayed;
                  if !replayed < 8 then drain ()
              | None -> drain ())
        in
        drain ();
        (match Client.run_load ~shutdown:true ~conns:[ conn ] second with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "second life: %s" msg);
        Client.close conn;
        !replayed)
  in
  check_int "full catch-up replayed" 8 catchup_count;
  check_int "restart resumed and extended" 14 outcome2.Server.height;
  (* The combined run equals one uninterrupted engine run: restart is
     invisible in the committed log. *)
  let restored =
    match Server.load_engine ~batch:4 ~snapshot:(Some snapshot) (cfg ()) with
    | Ok e -> e
    | Error m -> Alcotest.failf "snapshot rejected: %s" m
  in
  let expected, _ = Engine.run ~batch:4 ~jobs:1 (cfg ()) (first @ second) in
  check_bool "two lives == one uninterrupted run" true
    (Engine.decisions restored = expected);
  Sys.remove snapshot

let test_bad_requests_get_errors () =
  let (errors : string list), _ =
    with_server ~batch:2 (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        let errs = ref [] in
        let roundtrip line =
          Client.send conn line;
          match Client.recv_line ~timeout:10. conn with
          | None -> Alcotest.fail "no response"
          | Some resp -> (
              match Json.of_string resp with
              | Ok (Json.Obj fields) -> (
                  match List.assoc_opt "error" fields with
                  | Some _ -> errs := resp :: !errs
                  | None -> ())
              | _ -> ())
        in
        roundtrip "not json at all";
        roundtrip {|{"id":1,"method":"frobnicate"}|};
        roundtrip {|{"id":2,"method":"submit","params":{"subject":1,"inputs":[0]}}|};
        Client.send conn {|{"id":3,"method":"shutdown"}|};
        ignore (Client.recv_line ~timeout:10. conn);
        Client.close conn;
        !errs)
  in
  check_int "every bad request answered with an error" 3 (List.length errors)

(* Send [line], return the response. *)
let roundtrip conn line =
  Client.send conn line;
  match Client.recv_line ~timeout:10. conn with
  | None -> Alcotest.failf "no response to %s" line
  | Some resp -> (
      match Json.of_string resp with
      | Ok (Json.Obj fields) -> fields
      | _ -> Alcotest.failf "response is not an object: %s" resp)

(* A malformed submit line gets an error response and the daemon keeps
   serving: the next request on the same connection is answered. *)
let bad_submit_then_status conn =
  check_bool "malformed submit answered with an error" true
    (List.mem_assoc "error" (roundtrip conn negative_submit));
  check_bool "next request answered" true
    (List.mem_assoc "result" (roundtrip conn {|{"id":2,"method":"status"}|}))

let test_malformed_submit_primary () =
  let (), _ =
    with_server ~batch:2 (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        bad_submit_then_status conn;
        ignore (roundtrip conn {|{"id":3,"method":"shutdown"}|});
        Client.close conn)
  in
  ()

let test_malformed_submit_follower () =
  let path_p = fresh_path () and path_f = fresh_path () in
  let listen_p = Server.listen_unix path_p in
  let primary =
    Domain.spawn (fun () -> Server.serve ~batch:4 ~listen:listen_p (cfg ()))
  in
  let listen_f = Server.listen_unix path_f in
  let follower =
    Domain.spawn (fun () ->
        Replica.run ~batch:4 ~retry_every:0.05
          ~primary:(Unix.ADDR_UNIX path_p) ~listen:listen_f (cfg ()))
  in
  let fconn = Client.connect_unix ~retry_for:10. path_f in
  bad_submit_then_status fconn;
  ignore (roundtrip fconn {|{"id":3,"method":"shutdown"}|});
  ignore (Domain.join follower : Replica.outcome);
  let conn = Client.connect_unix ~retry_for:10. path_p in
  ignore (roundtrip conn {|{"id":4,"method":"shutdown"}|});
  ignore (Domain.join primary : Server.outcome);
  Client.close conn;
  Client.close fconn;
  Unix.close listen_p;
  Unix.close listen_f;
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path_p; path_f ]

(* A server dying under a client must surface as [Error] from the load
   driver — not as an uncaught EPIPE/ECONNRESET escaping [send] or
   [recv_line] (the pre-fix behaviour). *)
let test_server_death_is_an_error () =
  let result, _ =
    with_server ~batch:2 (fun path ->
        let victim = Client.connect_unix ~retry_for:10. path in
        let killer = Client.connect_unix ~retry_for:10. path in
        (match
           Client.request killer ~id:(Json.String "k") ~meth:"shutdown"
             (Json.Obj [])
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "shutdown request: %s" msg);
        Client.close killer;
        (* Give the daemon time to exit so the victim's socket is dead. *)
        Unix.sleepf 0.1;
        let reqs = List.init 6 (fun i -> (i, mixed_inputs i)) in
        let r = Client.run_load ~timeout:5. ~conns:[ victim ] reqs in
        Client.close victim;
        r)
  in
  match result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load against a dead server should be an Error"

(* Pipelined requests: a response read while awaiting a different id is
   stashed on the connection and handed back later, never dropped. *)
let test_out_of_order_responses_stashed () =
  let (), _ =
    with_server ~batch:2 (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        Client.send conn {|{"id":"a","method":"status"}|};
        Client.send conn {|{"id":"b","method":"status"}|};
        (* Await b first: a's response arrives first on the wire and must
           be stashed, then found by the later wait. *)
        (match Client.wait_response conn ~id:(Json.String "b") with
        | Ok (Json.Obj _) -> ()
        | Ok _ | Error _ -> Alcotest.fail "response b lost");
        (match Client.wait_response conn ~id:(Json.String "a") with
        | Ok (Json.Obj _) -> ()
        | Ok _ | Error _ -> Alcotest.fail "response a dropped");
        (match
           Client.request conn ~id:(Json.String "s") ~meth:"shutdown"
             (Json.Obj [])
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "shutdown: %s" msg);
        Client.close conn)
  in
  ()

(* A client that never reads must not stall decisions to anyone else:
   its outbound queue hits the bound, it is disconnected, the burst
   completes for the live clients. Small sndbuf + small max_outq keep
   the data volume test-sized (AF_UNIX limits in-flight bytes by the
   sender's SO_SNDBUF). *)
let test_stalled_consumer_disconnected () =
  let reqs = List.init 160 (fun i -> (i, mixed_inputs i)) in
  let (report : Client.report), outcome =
    with_server ~batch:4 ~max_outq:8192 ~sndbuf:4096 (fun path ->
        let stalled = Client.connect_unix ~retry_for:10. path in
        let conns =
          List.init 2 (fun _ -> Client.connect_unix ~retry_for:10. path)
        in
        let r =
          match Client.run_load ~shutdown:true ~conns reqs with
          | Ok r -> r
          | Error msg -> Alcotest.failf "run_load under a stalled peer: %s" msg
        in
        List.iter Client.close (stalled :: conns);
        r)
  in
  check_int "every position decided" 160 (List.length report.Client.decisions);
  check_bool "no errors" true (report.Client.errors = []);
  check_int "server height" 160 outcome.Server.height;
  check_bool "the stalled client was disconnected" true
    (outcome.Server.slow_disconnects >= 1)

let test_listen_unix_socket_hygiene () =
  (* A live daemon on the path: claiming it must fail loudly. *)
  let (), _ =
    with_server ~batch:2 (fun path ->
        (match Server.listen_unix path with
        | _ -> Alcotest.fail "claiming a live socket should fail"
        | exception Failure _ -> ());
        let conn = Client.connect_unix ~retry_for:10. path in
        (match
           Client.request conn ~id:(Json.String "s") ~meth:"shutdown"
             (Json.Obj [])
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "shutdown: %s" msg);
        Client.close conn)
  in
  (* A stale file from a dead listener: silently reclaimed. *)
  let path = fresh_path () in
  let dead = Server.listen_unix path in
  Unix.close dead;
  check_bool "stale socket file left behind" true (Sys.file_exists path);
  let reclaimed = Server.listen_unix path in
  Unix.close reclaimed;
  Sys.remove path

(* --- follower replication --- *)

(* Poll [path]'s height over a fresh connection each time: a connection
   left open would fall behind a relayed stream between polls. *)
let await_height ~timeout path target =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    let c = Client.connect_unix ~retry_for:10. path in
    let status = Client.status c in
    Client.close c;
    match status with
    | Ok (Json.Obj fields)
      when List.assoc_opt "height" fields = Some (Json.Int target) ->
        true
    | _ when Unix.gettimeofday () > deadline -> false
    | _ ->
        Unix.sleepf 0.02;
        poll ()
  in
  poll ()

let test_follower_replicates () =
  let path_p = fresh_path () and path_f = fresh_path () in
  let listen_p = Server.listen_unix path_p in
  let primary =
    Domain.spawn (fun () -> Server.serve ~batch:4 ~listen:listen_p (cfg ()))
  in
  let listen_f = Server.listen_unix path_f in
  let follower =
    Domain.spawn (fun () ->
        Replica.run ~batch:4 ~retry_every:0.05
          ~primary:(Unix.ADDR_UNIX path_p) ~listen:listen_f (cfg ()))
  in
  let reqs = List.init 12 (fun i -> (i, mixed_inputs i)) in
  let conn = Client.connect_unix ~retry_for:10. path_p in
  (match Client.run_load ~conns:[ conn ] reqs with
  | Ok r -> check_int "primary decided" 12 (List.length r.Client.decisions)
  | Error msg -> Alcotest.failf "load: %s" msg);
  let fconn = Client.connect_unix ~retry_for:10. path_f in
  (* Followers are read-only. *)
  (match
     Client.request fconn ~id:(Json.Int 0) ~meth:"submit"
       (Json.Obj
          [ ("subject", Json.Int 99);
            ("inputs", Json.List (List.map (fun i -> Json.Int (Oid.to_int i)) (mixed_inputs 0))) ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "follower accepted a submit");
  check_bool "follower converged" true
    (await_height ~timeout:15. path_f 12);
  let primary_log =
    match Client.catchup ~from:0 conn with
    | Ok l -> l
    | Error msg -> Alcotest.failf "primary catchup: %s" msg
  in
  let follower_log =
    match Client.catchup ~from:0 fconn with
    | Ok l -> l
    | Error msg -> Alcotest.failf "follower catchup: %s" msg
  in
  check_int "replicated everything" 12 (List.length follower_log);
  check_bool "follower log == primary log" true (follower_log = primary_log);
  (match
     Client.request fconn ~id:(Json.String "s") ~meth:"shutdown" (Json.Obj [])
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "follower shutdown: %s" msg);
  let f_out = Domain.join follower in
  check_int "one catchup" 1 f_out.Replica.catchups;
  check_int "follower height" 12 f_out.Replica.height;
  (match
     Client.request conn ~id:(Json.String "s") ~meth:"shutdown" (Json.Obj [])
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "primary shutdown: %s" msg);
  let (_ : Server.outcome) = Domain.join primary in
  Client.close conn;
  Client.close fconn;
  Unix.close listen_p;
  Unix.close listen_f;
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path_p; path_f ]

(* Racy load: positions race across connections, so only the set of
   decided subjects is pinned — every submitted subject, exactly once. *)
let test_racy_load_subject_set () =
  let reqs = List.init 24 (fun i -> (i, mixed_inputs i)) in
  let (report : Client.report), outcome =
    with_server ~batch:4 (fun path ->
        let conns =
          List.init 3 (fun _ -> Client.connect_unix ~retry_for:10. path)
        in
        let r =
          match Client.run_load_racy ~shutdown:true ~conns reqs with
          | Ok r -> r
          | Error msg -> Alcotest.failf "run_load_racy: %s" msg
        in
        List.iter Client.close conns;
        r)
  in
  check_int "all accepted" 24 report.Client.submitted;
  check_bool "no errors" true (report.Client.errors = []);
  check_int "server height" 24 outcome.Server.height;
  check_bool "decided subjects == submitted subjects" true
    (Client.subjects_decided report = List.init 24 Fun.id)

(* --- the decision log: recovery gate --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let fresh_log () =
  let path = Filename.temp_file "vv-serve" ".log" in
  Sys.remove path;
  path

let log_reqs = List.init 9 (fun i -> (i, mixed_inputs i))

(* The uninterrupted run's log at batch 4: its slots and its file. *)
let full_log =
  lazy
    (let e = Engine.create ~batch:4 (cfg ()) in
     List.iter
       (fun (subject, inputs) -> ignore (Engine.submit e ~subject inputs))
       log_reqs;
     ignore (Engine.flush e);
     let path = fresh_log () in
     Server.write_snapshot e (Some path);
     let bytes = read_file path in
     Sys.remove path;
     (Engine.decisions e, bytes))

(* Byte offset where the file's [k]-th line from the end starts. *)
let line_start bytes k =
  let rec back i k =
    if i < 0 then 0
    else if bytes.[i] = '\n' then if k = 0 then i + 1 else back (i - 1) (k - 1)
    else back (i - 1) k
  in
  back (String.length bytes - 2) (k - 1)

let load path = Server.load_engine ~batch:4 ~snapshot:(Some path) (cfg ())

let overwrite s i c = String.mapi (fun j d -> if j = i then c else d) s

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

(* Load [data] from a log file; it must recover a prefix of the full log
   and cut the file to exactly that prefix's records.  Returns the
   recovered engine. *)
let recover_prefix ~what path data =
  write_file path data;
  let slots, bytes = Lazy.force full_log in
  match load path with
  | Error msg -> Alcotest.failf "%s: load_engine refused: %s" what msg
  | Ok e ->
      let got = Engine.decisions e in
      if not (is_prefix got slots) then
        Alcotest.failf "%s: recovered log is not a prefix" what;
      let h = Engine.height e in
      let kept =
        if h = List.length slots then String.length bytes
        else line_start bytes (List.length slots - h)
      in
      if read_file path <> String.sub bytes 0 kept then
        Alcotest.failf "%s: file not cut to the recovered prefix" what;
      e

(* What a restarted daemon does with the recovered engine: take the
   remaining requests, decide them, append them. *)
let resume path e =
  List.iteri
    (fun i (subject, inputs) ->
      if i >= Engine.height e then ignore (Engine.submit e ~subject inputs))
    log_reqs;
  ignore (Engine.step e);
  Server.write_snapshot e (Some path);
  ignore (Engine.flush e);
  Server.write_snapshot e (Some path);
  read_file path

let test_log_torn_last_record () =
  let slots, bytes = Lazy.force full_log in
  let n = List.length slots in
  let last = line_start bytes 1 in
  let path = fresh_log () in
  for cut = last to String.length bytes do
    let what = Printf.sprintf "cut at byte %d" cut in
    let e = recover_prefix ~what path (String.sub bytes 0 cut) in
    check_int what
      (if cut = String.length bytes then n else n - 1)
      (Engine.height e);
    if resume path e <> bytes then Alcotest.failf "%s: resumed log differs" what
  done;
  Sys.remove path

(* Every byte of the last record, overwritten with each digit, each JSON
   delimiter, whitespace, NUL and three single-bit flips of itself: the
   record's checksum catches the edits that still parse (a digit for a
   digit), so each one drops exactly the last record. *)
let test_log_overwritten_last_record () =
  let slots, bytes = Lazy.force full_log in
  let n = List.length slots in
  let last = line_start bytes 1 in
  let path = fresh_log () in
  let fixed =
    List.map Char.code [ '\n'; ' '; '"'; ','; ':'; '{'; '}'; '\000' ]
  in
  for i = last to String.length bytes - 1 do
    let b = Char.code bytes.[i] in
    List.iter
      (fun v ->
        if v <> b then begin
          let what = Printf.sprintf "byte %d := %d" i v in
          let e = recover_prefix ~what path (overwrite bytes i (Char.chr v)) in
          check_int what (n - 1) (Engine.height e)
        end)
      (List.init 10 (fun d -> Char.code '0' + d)
      @ fixed
      @ [ b lxor 1; b lxor 0x20; b lxor 0x80 ])
  done;
  let e =
    recover_prefix ~what:"overwrite" path (overwrite bytes (last + 10) 'X')
  in
  check_bool "resumed log == uninterrupted log" true (resume path e = bytes);
  Sys.remove path

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* Damage before the last record is never repaired by dropping slots: it
   is an [Error] naming the damaged record's offset, and the file is left
   as it was. *)
let test_log_damage_before_last () =
  let _, bytes = Lazy.force full_log in
  let path = fresh_log () in
  let victim = line_start bytes 3 in
  let i = victim + 12 in
  let damaged = overwrite bytes i (Char.chr (Char.code bytes.[i] lxor 1)) in
  write_file path damaged;
  (match load path with
  | Ok _ -> Alcotest.fail "damage before the last record was accepted"
  | Error msg ->
      check_bool ("error names the offset: " ^ msg) true
        (contains msg (Printf.sprintf "byte %d" victim)));
  check_bool "file untouched" true (read_file path = damaged);
  (* A torn header cannot come from the writer (the first write is atomic). *)
  write_file path (String.sub bytes 0 20);
  check_bool "torn header refused" true (Result.is_error (load path));
  Sys.remove path

(* The messages the serve log source reports while [f] runs. *)
let logged_during f =
  let logged = ref [] in
  let report src _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun m ->
            if src == Server.log_src then logged := m :: !logged;
            over ();
            k ())
          fmt)
  in
  let previous = Logs.reporter () in
  Logs.set_reporter { Logs.report };
  Fun.protect ~finally:(fun () -> Logs.set_reporter previous) f;
  List.rev !logged

let test_log_not_a_file () =
  let dir = fresh_log () in
  Unix.mkdir dir 0o755;
  (match load dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a directory loaded as a log");
  (* Writing to it is logged, never raised. *)
  let e = Engine.create ~batch:4 (cfg ()) in
  let logged = logged_during (fun () -> Server.write_snapshot e (Some dir)) in
  check_bool "write failure logged" true (logged <> []);
  check_bool "no leftovers" true (Sys.readdir dir = [||]);
  Unix.rmdir dir

(* A torn or damaged tail left by a failed append is cut or rewritten by
   the next append, so no record ever follows a torn one. *)
let test_log_append_after_torn_tail () =
  let slots, bytes = Lazy.force full_log in
  let e = Engine.create ~batch:4 (cfg ()) in
  List.iter (fun s -> ignore (Engine.append_committed e s)) slots;
  (* A directory of its own: the writer's temp file is a sibling of the
     log, and no other process's files are counted. *)
  let dir = fresh_log () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "decisions.log" in
  let dir_entries () = Array.length (Sys.readdir dir) in
  List.iter
    (fun (what, data) ->
      write_file path data;
      let before = dir_entries () in
      Server.write_snapshot e (Some path);
      check_bool what true (read_file path = bytes);
      check_int (what ^ ": no temp file left") before (dir_entries ()))
    [
      ("torn last record", String.sub bytes 0 (String.length bytes - 30));
      ("torn earlier record", String.sub bytes 0 (line_start bytes 3 + 40));
      ( "header only",
        String.sub bytes 0 (line_start bytes (List.length slots)) );
      ("damaged last record", overwrite bytes (line_start bytes 1 + 3) '#');
      ( "another config's log",
        String.map (fun c -> if c = '9' then '7' else c) bytes );
    ];
  Sys.remove path;
  Server.write_snapshot e (Some path);
  check_bool "missing file written whole" true (read_file path = bytes);
  Sys.remove path;
  Unix.rmdir dir

(* Any bytes at all: [load_engine] returns [Ok] with a prefix of the log
   the bytes came from, or [Error]; it never raises, and a second load
   of what it left finds nothing more to cut. *)
let prop_load_never_raises =
  let mutate =
    QCheck.Gen.(
      let* kind = int_bound 3 in
      let* at = int_bound 2000 in
      let* junk = string_size ~gen:char (int_range 1 4) in
      return (fun s ->
          let at = at mod (String.length s + 1) in
          match kind with
          | 0 -> String.sub s 0 at
          | 1 when at < String.length s -> overwrite s at junk.[0]
          | _ ->
              String.sub s 0 at ^ junk
              ^ String.sub s at (String.length s - at)))
  in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (1, string_size ~gen:char (int_bound 300));
          ( 4,
            let* ms = list_size (int_range 1 3) mutate in
            let full = snd (Lazy.force full_log) in
            return (List.fold_left (fun s m -> m s) full ms) );
        ])
  in
  QCheck.Test.make ~count:300 ~name:"load_engine: prefix or Error, never raises"
    (QCheck.make ~print:String.escaped gen) (fun data ->
      let path = fresh_log () in
      write_file path data;
      let ok =
        match load path with
        | Error _ -> read_file path = data
        | Ok e ->
            let left = read_file path in
            String.length left <= String.length data
            && String.sub data 0 (String.length left) = left
            && is_prefix (Engine.decisions e) (fst (Lazy.force full_log))
            && (match load path with
               | Ok e' -> Engine.decisions e' = Engine.decisions e
               | Error _ -> false)
            && read_file path = left
      in
      Sys.remove path;
      ok)

(* The real daemon on a log whose last record is torn: it resumes below
   the tear, and the remaining request completes the log byte for byte. *)
let test_daemon_resumes_torn_log () =
  let slots, bytes = Lazy.force full_log in
  let n = List.length slots in
  let snapshot = fresh_log () in
  write_file snapshot (String.sub bytes 0 (line_start bytes 1 + 17));
  let _, outcome =
    with_server ~batch:4 ~snapshot (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        (match Client.status conn with
        | Ok (Json.Obj fields) ->
            check_bool "resumed below the tear" true
              (List.assoc_opt "height" fields = Some (Json.Int (n - 1)))
        | _ -> Alcotest.fail "status");
        (match
           Client.run_load ~shutdown:true ~conns:[ conn ]
             [ List.nth log_reqs (n - 1) ]
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "resume load: %s" msg);
        Client.close conn)
  in
  check_int "height" n outcome.Server.height;
  check_bool "resumed log == uninterrupted log" true
    (read_file snapshot = bytes);
  Sys.remove snapshot

(* Write before broadcast: whenever a client holds a decision
   notification, that position's record is already in the daemon's log —
   on the primary and on a follower relaying it.  Batch 1 makes every
   submission its own commit. *)
let test_write_before_broadcast () =
  let path_p = fresh_path () and path_f = fresh_path () in
  let snap_p = fresh_log () and snap_f = fresh_log () in
  let listen_p = Server.listen_unix path_p in
  let primary =
    Domain.spawn (fun () ->
        Server.serve ~batch:1 ~snapshot:snap_p ~listen:listen_p (cfg ()))
  in
  let listen_f = Server.listen_unix path_f in
  let follower =
    Domain.spawn (fun () ->
        Replica.run ~batch:1 ~snapshot:snap_f ~retry_every:0.05
          ~primary:(Unix.ADDR_UNIX path_p) ~listen:listen_f (cfg ()))
  in
  let count = 60 in
  let watch_p = Client.connect_unix ~retry_for:10. path_p in
  let watch_f = Client.connect_unix ~retry_for:10. path_f in
  ignore (Client.status watch_p);
  let deadline = Unix.gettimeofday () +. 10. in
  let rec await_link () =
    match Client.status watch_f with
    | Ok (Json.Obj fields)
      when List.assoc_opt "primary_connected" fields = Some (Json.Bool true) ->
        ()
    | _ when Unix.gettimeofday () > deadline ->
        Alcotest.fail "follower never linked"
    | _ ->
        Unix.sleepf 0.02;
        await_link ()
  in
  await_link ();
  let has_record file p =
    let prefix = Printf.sprintf "{\"index\":%d," p in
    Sys.file_exists file
    && List.exists
         (String.starts_with ~prefix)
         (String.split_on_char '\n' (read_file file))
  in
  (* Positions whose notification arrived before their record. *)
  let watch conn file =
    Domain.spawn (fun () ->
        let early = ref [] and seen = ref 0 in
        while !seen < count do
          match Client.recv_line ~timeout:10. conn with
          | None -> seen := count
          | Some line -> (
              match Rpc.decision_of_line line with
              | Some s ->
                  incr seen;
                  if not (has_record file s.Ledger.index) then
                    early := s.Ledger.index :: !early
              | None -> ())
        done;
        (!seen, !early))
  in
  let wp = watch watch_p snap_p and wf = watch watch_f snap_f in
  let conn = Client.connect_unix ~retry_for:10. path_p in
  let reqs = List.init count (fun i -> (i, mixed_inputs i)) in
  (match Client.run_load ~conns:[ conn ] reqs with
  | Ok r -> check_int "decided" count (List.length r.Client.decisions)
  | Error msg -> Alcotest.failf "load: %s" msg);
  let early_p = Domain.join wp and early_f = Domain.join wf in
  check_bool "primary: every notification follows its record" true
    (early_p = (count, []));
  check_bool "follower: every relay follows its record" true
    (early_f = (count, []));
  let stop path =
    let c = Client.connect_unix ~retry_for:10. path in
    ignore
      (Client.request c ~id:(Json.String "s") ~meth:"shutdown" (Json.Obj []));
    Client.close c
  in
  stop path_f;
  ignore (Domain.join follower);
  stop path_p;
  ignore (Domain.join primary);
  check_bool "follower log == primary log" true
    (read_file snap_f = read_file snap_p);
  List.iter Client.close [ conn; watch_p; watch_f ];
  Unix.close listen_p;
  Unix.close listen_f;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path_p; path_f; snap_p; snap_f ]

(* Fail-stop: when a commit's records cannot be written — the log path
   is swapped for a directory — the daemon stops without broadcasting
   them, on a follower and on the primary.  A watcher holds exactly the
   decisions that reached the log. *)
let test_unwritable_log_stops () =
  let path_p = fresh_path () and path_f = fresh_path () in
  let snap_p = fresh_log () and snap_f = fresh_log () in
  let listen_p = Server.listen_unix path_p in
  let primary =
    Domain.spawn (fun () ->
        Server.serve ~batch:1 ~snapshot:snap_p ~listen:listen_p (cfg ()))
  in
  let listen_f = Server.listen_unix path_f in
  let follower =
    Domain.spawn (fun () ->
        Replica.run ~batch:1 ~snapshot:snap_f ~retry_every:0.05
          ~primary:(Unix.ADDR_UNIX path_p) ~listen:listen_f (cfg ()))
  in
  let watch_p = Client.connect_unix ~retry_for:10. path_p in
  let watch_f = Client.connect_unix ~retry_for:10. path_f in
  ignore (Client.status watch_p);
  ignore (Client.status watch_f);
  let conn = Client.connect_unix ~retry_for:10. path_p in
  let submit i = Client.run_load ~conns:[ conn ] [ (i, mixed_inputs i) ] in
  let swap file =
    Sys.remove file;
    Unix.mkdir file 0o755
  in
  let stopped what daemon =
    match Domain.join daemon with
    | exception Failure msg ->
        check_bool (what ^ " names the failure: " ^ msg) true
          (contains msg "decision log write failed")
    | _ -> Alcotest.failf "%s kept running past a failed write" what
  in
  (* Every notification a watcher gets until the daemon closes it. *)
  let notified conn =
    let rec drain acc =
      match Client.recv_line ~timeout:10. conn with
      | None -> List.rev acc
      | Some line -> (
          match Rpc.decision_of_line line with
          | Some s -> drain (s.Ledger.index :: acc)
          | None -> drain acc)
    in
    drain []
  in
  check_bool "slot 0 decided" true (Result.is_ok (submit 0));
  check_bool "follower logged slot 0" true
    (await_height ~timeout:15. path_f 1);
  swap snap_f;
  check_bool "slot 1 decided" true (Result.is_ok (submit 1));
  check Alcotest.(list int) "follower relayed only slot 0" [ 0 ]
    (notified watch_f);
  stopped "follower" follower;
  swap snap_p;
  check_bool "slot 2 never answered" true (Result.is_error (submit 2));
  check Alcotest.(list int) "primary broadcast only slots 0-1" [ 0; 1 ]
    (notified watch_p);
  stopped "primary" primary;
  List.iter Client.close [ conn; watch_p; watch_f ];
  Unix.close listen_p;
  Unix.close listen_f;
  List.iter Unix.rmdir [ snap_p; snap_f ];
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path_p; path_f ]

(* --- catchup cursor and line bound --- *)

(* A decision log of [height] synthetic slots at batch 4, in a fresh
   file: cheap to build at any length. *)
let synthetic_log height =
  let e = Engine.create ~batch:4 (cfg ()) in
  for index = 0 to height - 1 do
    ignore
      (Engine.append_committed e
         {
           Ledger.index;
           subject = index;
           decision = Some (o (index mod 3));
           speaker = index mod 7;
           attempts = 1;
           valid = true;
           rounds_total = 4;
         })
  done;
  let path = fresh_log () in
  (match Server.write_log e (Some path) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "synthetic log: %s" msg);
  (Engine.decisions e, path)

let stop_via path =
  let c = Client.connect_unix ~retry_for:10. path in
  ignore (roundtrip c {|{"id":"stop","method":"shutdown"}|});
  Client.close c

(* A client that asks for a catchup, then waits before reading, still
   gets the whole replay: the cursor queues it a window at a time, so it
   never trips the 16 KiB budget. *)
let test_paused_reader_whole_replay () =
  let slots, snapshot = synthetic_log 2000 in
  let (replaying, got), outcome =
    with_server ~batch:4 ~snapshot ~max_outq:16384 ~sndbuf:4096 (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        Client.send conn {|{"id":"cu","method":"catchup","params":{"from":0}}|};
        Unix.sleepf 0.3;
        let replaying =
          match Client.recv_line ~timeout:10. conn with
          | Some line -> (
              match Json.of_string line with
              | Ok (Json.Obj fields) -> List.assoc_opt "result" fields
              | _ -> None)
          | None -> None
        in
        let rec drain acc k =
          if k = 0 then List.rev acc
          else
            match Client.recv_line ~timeout:10. conn with
            | None -> List.rev acc
            | Some line -> (
                match Rpc.decision_of_line line with
                | Some s -> drain (s :: acc) (k - 1)
                | None -> drain acc k)
        in
        let got = drain [] (List.length slots) in
        Client.close conn;
        stop_via path;
        (replaying, got))
  in
  check_bool "replaying = the log's height" true
    (replaying = Some (Json.Obj [ ("replaying", Json.Int 2000) ]));
  check_int "every replay line" 2000 (List.length got);
  check_bool "replay == log, in order" true (got = slots);
  check_int "no slow disconnect" 0 outcome.Server.slow_disconnects;
  Sys.remove snapshot

(* A fresh follower of that primary resyncs with one catchup, and a
   prompt one-shot catchup gets the whole log. *)
let test_fresh_follower_one_catchup () =
  let slots, snapshot = synthetic_log 2000 in
  let f_out, outcome =
    with_server ~batch:4 ~snapshot ~max_outq:16384 ~sndbuf:4096 (fun path ->
        let path_f = fresh_path () in
        let listen_f = Server.listen_unix path_f in
        let follower =
          Domain.spawn (fun () ->
              Replica.run ~batch:4 ~retry_every:0.05
                ~primary:(Unix.ADDR_UNIX path) ~listen:listen_f (cfg ()))
        in
        check_bool "follower converged" true
          (await_height ~timeout:15. path_f 2000);
        let conn = Client.connect_unix ~retry_for:10. path in
        (match Client.catchup ~from:0 conn with
        | Ok l -> check_bool "one-shot catchup == log" true (l = slots)
        | Error msg -> Alcotest.failf "primary catchup: %s" msg);
        let fconn = Client.connect_unix ~retry_for:10. path_f in
        (match Client.catchup ~from:0 fconn with
        | Ok l -> check_bool "follower log == primary log" true (l = slots)
        | Error msg -> Alcotest.failf "follower catchup: %s" msg);
        List.iter Client.close [ conn; fconn ];
        stop_via path_f;
        let f_out = Domain.join follower in
        stop_via path;
        Unix.close listen_f;
        if Sys.file_exists path_f then Sys.remove path_f;
        f_out)
  in
  check_int "one catchup" 1 f_out.Replica.catchups;
  check_int "follower height" 2000 f_out.Replica.height;
  check_int "primary: no slow disconnect" 0 outcome.Server.slow_disconnects;
  Sys.remove snapshot

(* A follower applies the primary's slow-consumer policy to its own
   clients, and counts it: a client that stops reading while the
   follower relays a long resync is dropped. *)
let test_follower_counts_slow_consumers () =
  let _, snapshot = synthetic_log 2000 in
  let path_p = fresh_path () and path_f = fresh_path () in
  let listen_f = Server.listen_unix path_f in
  (* The primary is not up yet: the follower retries until it is. *)
  let follower =
    Domain.spawn (fun () ->
        Replica.run ~batch:4 ~max_outq:8192 ~retry_every:0.05
          ~primary:(Unix.ADDR_UNIX path_p) ~listen:listen_f (cfg ()))
  in
  let stalled = Client.connect_unix ~retry_for:10. path_f in
  ignore (Client.status stalled);
  let f_out, _ =
    with_server ~path:path_p ~batch:4 ~snapshot (fun path ->
        check_bool "follower converged" true
          (await_height ~timeout:15. path_f 2000);
        stop_via path_f;
        let f_out = Domain.join follower in
        stop_via path;
        f_out)
  in
  check_bool "the stalled client was dropped" true
    (f_out.Replica.slow_disconnects >= 1);
  Client.close stalled;
  Unix.close listen_f;
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path_f; snapshot ]

(* A peer streaming one line with no newline is cut off once the line
   passes the channel's 1 MiB bound; other clients are still served. *)
let test_unterminated_line_cut_off () =
  let (cut, answered), _ =
    with_server ~batch:2 (fun path ->
        let flood = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect flood (Unix.ADDR_UNIX path);
        let chunk = String.make 65536 'x' in
        let rec push sent =
          sent < 2 lsl 20
          &&
          match Unix.write_substring flood chunk 0 (String.length chunk) with
          | n -> push (sent + n)
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              true
        in
        let cut = push 0 in
        Unix.close flood;
        let conn = Client.connect_unix ~retry_for:10. path in
        let answered =
          List.mem_assoc "result" (roundtrip conn {|{"id":1,"method":"status"}|})
        in
        ignore (roundtrip conn {|{"id":2,"method":"shutdown"}|});
        Client.close conn;
        (cut, answered))
  in
  check_bool "a 2 MiB line is cut off" true cut;
  check_bool "another client is still answered" true answered

(* --- the line channel --- *)

module Chan = Vv_serve.Chan

(* Write all of [data] to a non-blocking fd whose peer is not reading:
   the test fails instead of hanging if the socket cannot hold it. *)
let write_all fd data =
  Unix.set_nonblock fd;
  let rec go ofs =
    if ofs < String.length data then
      match Unix.write_substring fd data ofs (String.length data - ofs) with
      | n -> go (ofs + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.failf "the socket took only %d of %d bytes" ofs
            (String.length data)
  in
  go 0

(* 64 KiB of pipelined 100-byte requests come back from one [read_lines]
   call, as they did when one 64 KiB read took them: a single read into
   the 4 KiB buffer would return about 40 of the 655 lines. *)
let test_chan_reads_backlog () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF (1 lsl 18)
   with Unix.Unix_error _ -> ());
  let lines = List.init 655 (fun i -> Printf.sprintf "%099d" i) in
  write_all a (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let ch = Chan.of_fd b in
  let got = Chan.read_lines ch in
  check_int "lines in one call" 655 (List.length got);
  check_bool "in order" true (got = lines);
  check_bool "still alive" true (Chan.alive ch);
  Chan.close ch;
  Unix.close a

(* [enqueue] only queues: the peer reads nothing until [flush_write],
   and then one read returns every line. *)
let test_chan_one_write () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ch = Chan.of_fd a in
  let lines = List.init 100 (Printf.sprintf "line-%03d") in
  List.iter (Chan.enqueue ch) lines;
  Unix.set_nonblock b;
  let buf = Bytes.create 65536 in
  let read () =
    match Unix.read b buf 0 (Bytes.length buf) with
    | n -> Bytes.sub_string buf 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ""
  in
  check (Alcotest.string) "nothing sent before the flush" "" (read ());
  check_int "all unsent" (List.length lines * 9) (Chan.unsent ch);
  Chan.flush_write ch;
  check_int "nothing unsent" 0 (Chan.unsent ch);
  check (Alcotest.string) "one read returns every line"
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))
    (read ());
  Chan.close ch;
  Unix.close b

(* --- the client line reader --- *)

(* A line longer than the reader's buffer, a line split across writes, and
   many lines arriving in one read all come back whole and in order. *)
let test_client_line_reader () =
  let path = fresh_path () in
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 1;
  let conn = Client.connect_unix path in
  let peer, _ = Unix.accept listen in
  let write s =
    let rec go ofs =
      if ofs < String.length s then
        go (ofs + Unix.write_substring peer s ofs (String.length s - ofs))
    in
    go 0
  in
  let long = String.init 20_000 (fun i -> Char.chr (97 + (i mod 26))) in
  write (String.sub long 0 5000);
  write (String.sub long 5000 15_000 ^ "\nshort\n");
  let line = Alcotest.(option string) in
  check line "long line" (Some long) (Client.recv_line conn);
  check line "then short" (Some "short") (Client.recv_line conn);
  let many = List.init 3000 (Printf.sprintf "line-%05d") in
  write (String.concat "\n" many ^ "\npart");
  List.iter
    (fun l -> check line l (Some l) (Client.recv_line conn))
    many;
  write "ial\n";
  check line "split line" (Some "partial") (Client.recv_line conn);
  Unix.close peer;
  check line "EOF" None (Client.recv_line conn);
  Client.close conn;
  Unix.close listen;
  Sys.remove path

(* --- connect-retry backoff --- *)

(* The retry pacing is a pure function of (seed, attempt): capped
   exponential slots (0.05s doubling to 1s) scaled by jitter in
   [0.5, 1.0).  Pin determinism, the envelope, monotone slot growth, the
   cap, and that distinct seeds actually de-synchronize. *)
let test_retry_backoff () =
  let slot attempt = Float.min (0.05 *. (2. ** float_of_int (attempt - 1))) 1.0 in
  (* deterministic: same (seed, attempt) -> same delay *)
  List.iter
    (fun attempt ->
      check (Alcotest.float 0.) "replayable"
        (Client.retry_delay ~seed:7 ~attempt)
        (Client.retry_delay ~seed:7 ~attempt))
    [ 1; 2; 3; 8; 40; 100 ];
  (* envelope: slot/2 <= delay < slot, hence never above the 1s cap *)
  List.iter
    (fun attempt ->
      let d = Client.retry_delay ~seed:11 ~attempt in
      let s = slot attempt in
      check_bool
        (Printf.sprintf "attempt %d in [slot/2, slot)" attempt)
        true
        (d >= (s /. 2.) -. 1e-9 && d < s);
      check_bool (Printf.sprintf "attempt %d capped" attempt) true (d <= 1.0))
    (List.init 64 (fun i -> i + 1));
  (* first slots grow: un-jittered lower bound of attempt k+2 exceeds the
     upper bound of attempt k while below the cap *)
  check_bool "slots double below the cap" true
    (slot 3 /. 2. >= slot 1 && slot 5 /. 2. >= slot 3);
  (* distinct seeds de-synchronize: two clients' schedules differ
     somewhere early *)
  let schedule seed =
    List.init 8 (fun i -> Client.retry_delay ~seed ~attempt:(i + 1))
  in
  check_bool "seeds de-synchronize" true (schedule 1 <> schedule 2);
  (* attempt 0 is rejected loudly *)
  Alcotest.check_raises "attempt 0"
    (Invalid_argument "Client.retry_delay: attempt must be >= 1") (fun () ->
      ignore (Client.retry_delay ~seed:1 ~attempt:0))

(* The retrying connect still works end-to-end: a client started before
   the socket exists connects (with backoff pacing) once the listener
   comes up. *)
let test_retry_connect_races_startup () =
  let path = fresh_path () in
  let listener =
    Domain.spawn (fun () ->
        Unix.sleepf 0.15;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 1;
        let c, _ = Unix.accept fd in
        Unix.close c;
        Unix.close fd)
  in
  let conn = Client.connect_unix ~retry_for:5.0 ~retry_seed:42 path in
  Domain.join listener;
  Client.close conn;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  check_bool "connected after startup race" true true

let () =
  Alcotest.run "serve"
    [
      ( "rpc",
        [
          Alcotest.test_case "parse" `Quick test_rpc_parse;
          Alcotest.test_case "decision line round-trip" `Quick
            test_rpc_decision_roundtrip;
          QCheck_alcotest.to_alcotest prop_parsers_never_raise;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "load matches local engine" `Quick
            test_load_matches_local;
          Alcotest.test_case "snapshot restart and catch-up" `Quick
            test_snapshot_restart_catchup;
          Alcotest.test_case "bad requests get error responses" `Quick
            test_bad_requests_get_errors;
          Alcotest.test_case "server death surfaces as Error" `Quick
            test_server_death_is_an_error;
          Alcotest.test_case "out-of-order responses stashed" `Quick
            test_out_of_order_responses_stashed;
          Alcotest.test_case "stalled consumer disconnected" `Quick
            test_stalled_consumer_disconnected;
          Alcotest.test_case "unix socket hygiene" `Quick
            test_listen_unix_socket_hygiene;
          Alcotest.test_case "racy load decides the subject set" `Quick
            test_racy_load_subject_set;
          Alcotest.test_case "malformed submit: primary answers, serves on"
            `Quick test_malformed_submit_primary;
          Alcotest.test_case "malformed submit: follower answers, serves on"
            `Quick test_malformed_submit_follower;
        ] );
      ( "replica",
        [
          Alcotest.test_case "follower replicates the primary" `Quick
            test_follower_replicates;
          Alcotest.test_case "write before broadcast" `Quick
            test_write_before_broadcast;
          Alcotest.test_case "unwritable log stops the daemon" `Quick
            test_unwritable_log_stops;
          Alcotest.test_case "fresh follower resyncs with one catchup" `Quick
            test_fresh_follower_one_catchup;
          Alcotest.test_case "follower counts slow consumers" `Quick
            test_follower_counts_slow_consumers;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "paused reader gets the whole replay" `Quick
            test_paused_reader_whole_replay;
          Alcotest.test_case "unterminated 2 MiB line cut off" `Quick
            test_unterminated_line_cut_off;
        ] );
      ( "log",
        [
          Alcotest.test_case "torn last record, every offset" `Quick
            test_log_torn_last_record;
          Alcotest.test_case "overwritten last record, every byte" `Quick
            test_log_overwritten_last_record;
          Alcotest.test_case "damage before the last record" `Quick
            test_log_damage_before_last;
          Alcotest.test_case "directory path is an Error" `Quick
            test_log_not_a_file;
          Alcotest.test_case "append after a torn tail" `Quick
            test_log_append_after_torn_tail;
          Alcotest.test_case "daemon resumes a torn log" `Quick
            test_daemon_resumes_torn_log;
          QCheck_alcotest.to_alcotest prop_load_never_raises;
        ] );
      ( "chan",
        [
          Alcotest.test_case "one read_lines call takes a 64 KiB backlog"
            `Quick test_chan_reads_backlog;
          Alcotest.test_case "enqueue waits; one flush_write sends all"
            `Quick test_chan_one_write;
        ] );
      ( "client",
        [
          Alcotest.test_case "line reader" `Quick test_client_line_reader;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "retry delay schedule" `Quick test_retry_backoff;
          Alcotest.test_case "retrying connect races startup" `Quick
            test_retry_connect_races_startup;
        ] );
    ]
