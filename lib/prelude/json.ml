(* A minimal JSON tree, printer and parser, enough for the
   machine-readable emitters (run traces, batch summaries, tables), the
   serve daemon's wire lines and decision log, and the tools that read
   them back (the bench regression gate).  Kept dependency-free on
   purpose.

   Both directions allocate what they return and little else: the
   printer measures the document, then writes it into one string of
   that length; the parser copies a string's bytes once (through a
   buffer only from its first escape on) and reads an integer where it
   stands. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let rec member key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else member key rest

(* --- printer --- *)

(* Floats print shortest-round-trip style; infinities and NaN have no JSON
   representation, so they degrade to null. *)
let float_repr v =
  if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then
    "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.12g" v

(* Decimal digits of [n <= 0]'s magnitude, counted by comparison against
   [bound = -10^acc].  Ints are handled on the non-positive side
   throughout, so [min_int] needs no special case; no int has more than
   19 digits. *)
let rec digits n bound acc =
  if acc = 19 || n > bound then acc else digits n (bound * 10) (acc + 1)

let int_size i = if i < 0 then 1 + digits i (-10) 1 else digits (-i) (-10) 1

(* A byte that prints as itself inside a string; the others take a
   two-byte escape or, for the other control characters, [\u00XX]. *)
let plain_char c = c >= ' ' && c <> '"' && c <> '\\'

let string_size s =
  let size = ref (String.length s + 2) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' | '\\' | '\n' | '\r' | '\t' -> incr size
    | '\000' .. '\031' -> size := !size + 5
    | _ -> ()
  done;
  !size

let rec size = function
  | Null -> 4
  | Bool b -> if b then 4 else 5
  | Int i -> int_size i
  | Float v -> String.length (float_repr v)
  | String s -> string_size s
  | List [] -> 2
  | List items ->
      List.fold_left (fun acc item -> acc + size item + 1) 1 items
  | Obj [] -> 2
  | Obj fields ->
      List.fold_left
        (fun acc (k, v) -> acc + string_size k + size v + 2)
        1 fields

(* Each writer puts its bytes at [pos] and returns the position after
   them. *)
let put b pos c =
  Bytes.set b pos c;
  pos + 1

let rec write_digits b n at =
  Bytes.set b at (Char.unsafe_chr (48 - (n mod 10)));
  if n <= -10 then write_digits b (n / 10) (at - 1)

let write_int b pos i =
  let len = int_size i in
  if i < 0 then Bytes.set b pos '-';
  write_digits b (if i < 0 then i else -i) (pos + len - 1);
  pos + len

let write_raw b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let hex = "0123456789abcdef"

let write_escape b pos c =
  let pos = put b pos '\\' in
  match c with
  | '"' | '\\' -> put b pos c
  | '\n' -> put b pos 'n'
  | '\r' -> put b pos 'r'
  | '\t' -> put b pos 't'
  | c ->
      let pos = write_raw b pos "u00" in
      let pos = put b pos hex.[Char.code c lsr 4] in
      put b pos hex.[Char.code c land 15]

(* Runs that need no escape are blitted whole. *)
let write_string b pos s =
  let pos = ref (put b pos '"') and start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if not (plain_char c) then begin
      Bytes.blit_string s !start b !pos (i - !start);
      pos := write_escape b (!pos + (i - !start)) c;
      start := i + 1
    end
  done;
  let rest = String.length s - !start in
  Bytes.blit_string s !start b !pos rest;
  put b (!pos + rest) '"'

let rec write b pos = function
  | Null -> write_raw b pos "null"
  | Bool true -> write_raw b pos "true"
  | Bool false -> write_raw b pos "false"
  | Int i -> write_int b pos i
  | Float v -> write_raw b pos (float_repr v)
  | String s -> write_string b pos s
  | List items -> put b (write_items b (put b pos '[') items) ']'
  | Obj fields -> put b (write_fields b (put b pos '{') fields) '}'

and write_items b pos = function
  | [] -> pos
  | [ item ] -> write b pos item
  | item :: rest -> write_items b (put b (write b pos item) ',') rest

and write_fields b pos = function
  | [] -> pos
  | [ field ] -> write_field b pos field
  | field :: rest -> write_fields b (put b (write_field b pos field) ',') rest

and write_field b pos (k, v) = write b (put b (write_string b pos k) ':') v

let to_string t =
  let len = size t in
  let b = Bytes.create len in
  let written = write b 0 t in
  assert (written = len);
  Bytes.unsafe_to_string b

let pp ppf t = Fmt.string ppf (to_string t)

let of_int_option = function None -> Null | Some i -> Int i

(* --- parser --- *)

(* Recursive-descent parser for standard JSON.  [\uXXXX] escapes decode
   to UTF-8, including surrogate pairs for non-BMP code points; lone
   surrogates are an error rather than mangled output.  Numbers parse as
   [Int] when they carry no fraction, exponent or overflow, [Float]
   otherwise. *)
exception Parse_error of string

type reader = { s : string; mutable pos : int }

let fail r msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg r.pos))

let at r c = r.pos < String.length r.s && r.s.[r.pos] = c

let rec skip_ws r =
  if r.pos < String.length r.s then
    match r.s.[r.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        r.pos <- r.pos + 1;
        skip_ws r
    | _ -> ()

let expect r c =
  if at r c then r.pos <- r.pos + 1
  else fail r (Printf.sprintf "expected '%c'" c)

let rec matches s pos word i =
  i = String.length word
  || (s.[pos + i] = word.[i] && matches s pos word (i + 1))

let literal r word v =
  if
    r.pos + String.length word <= String.length r.s
    && matches r.s r.pos word 0
  then begin
    r.pos <- r.pos + String.length word;
    v
  end
  else fail r ("expected " ^ word)

(* Encode one Unicode scalar value as UTF-8. The parser never passes a
   surrogate here (pairs are combined first, lone halves rejected). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* Exactly four hex digits — [int_of_string "0x…"] would also accept
   underscores, so validate by hand. *)
let hex4 r =
  let s = r.s in
  if r.pos + 4 > String.length s then fail r "truncated \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail r "invalid \\u escape"
  in
  let code =
    (digit s.[r.pos] lsl 12)
    lor (digit s.[r.pos + 1] lsl 8)
    lor (digit s.[r.pos + 2] lsl 4)
    lor digit s.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  code

(* One escape, the backslash already consumed. *)
let unescape r buf =
  if r.pos >= String.length r.s then fail r "unterminated escape";
  let e = r.s.[r.pos] in
  r.pos <- r.pos + 1;
  match e with
  | '"' | '\\' | '/' -> Buffer.add_char buf e
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'u' ->
      let code = hex4 r in
      if code >= 0xD800 && code <= 0xDBFF then begin
        (* High surrogate: the low half must follow immediately as another
           \u escape; together they name one non-BMP code point. *)
        if
          not
            (r.pos + 2 <= String.length r.s
            && r.s.[r.pos] = '\\'
            && r.s.[r.pos + 1] = 'u')
        then fail r "high surrogate without a following \\u escape";
        r.pos <- r.pos + 2;
        let low = hex4 r in
        if low < 0xDC00 || low > 0xDFFF then
          fail r "high surrogate not followed by a low surrogate";
        add_utf8 buf (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
      end
      else if code >= 0xDC00 && code <= 0xDFFF then fail r "lone low surrogate"
      else add_utf8 buf code
  | _ -> fail r "invalid escape"

(* After the first escape: every byte goes through [buf]. *)
let rec escaped_rest r buf =
  if r.pos >= String.length r.s then fail r "unterminated string";
  let c = r.s.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '"' -> Buffer.contents buf
  | '\\' ->
      unescape r buf;
      escaped_rest r buf
  | c ->
      Buffer.add_char buf c;
      escaped_rest r buf

(* Up to the first escape the string's bytes stand as they are in the
   input: a string without escapes is one [String.sub]. *)
let plain r start =
  let s = r.s in
  let i = ref start in
  while
    !i < String.length s
    &&
    let c = String.unsafe_get s !i in
    c <> '"' && c <> '\\'
  do
    incr i
  done;
  if !i >= String.length s then begin
    r.pos <- String.length s;
    fail r "unterminated string"
  end
  else if String.unsafe_get s !i = '"' then begin
    r.pos <- !i + 1;
    String.sub s start (!i - start)
  end
  else begin
    let buf = Buffer.create (!i - start + 16) in
    Buffer.add_substring buf s start (!i - start);
    r.pos <- !i + 1;
    unescape r buf;
    escaped_rest r buf
  end

let parse_string r =
  expect r '"';
  plain r r.pos

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* The value of [s.[start, stop)] when it is an optional sign and 1 to 18
   digits — too few to overflow — read where it stands; [-1] otherwise.
   Other spans go through [int_of_string_opt] and [float_of_string_opt]. *)
let rec small_int s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        small_int s (i + 1) stop ((10 * acc) + (Char.code c - Char.code '0'))
    | _ -> -1

let parse_number r =
  let s = r.s in
  let start = r.pos in
  while r.pos < String.length s && is_num_char s.[r.pos] do
    r.pos <- r.pos + 1
  done;
  let stop = r.pos in
  let signed = stop > start && (s.[start] = '-' || s.[start] = '+') in
  let first = if signed then start + 1 else start in
  let magnitude =
    if stop > first && stop - first <= 18 then small_int s first stop 0 else -1
  in
  if magnitude >= 0 then Int (if s.[start] = '-' then -magnitude else magnitude)
  else
    let lit = String.sub s start (stop - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail r "invalid number")

let rec parse_value r =
  skip_ws r;
  if r.pos >= String.length r.s then fail r "unexpected end of input";
  match r.s.[r.pos] with
  | '"' -> String (parse_string r)
  | 'n' -> literal r "null" Null
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | '[' ->
      r.pos <- r.pos + 1;
      skip_ws r;
      if at r ']' then begin
        r.pos <- r.pos + 1;
        List []
      end
      else List (parse_items r)
  | '{' ->
      r.pos <- r.pos + 1;
      skip_ws r;
      if at r '}' then begin
        r.pos <- r.pos + 1;
        Obj []
      end
      else Obj (parse_fields r)
  | _ -> parse_number r

(* Items and fields are consed in order as the recursion returns. *)
and parse_items r =
  let item = parse_value r in
  skip_ws r;
  if at r ',' then begin
    r.pos <- r.pos + 1;
    item :: parse_items r
  end
  else begin
    expect r ']';
    [ item ]
  end

and parse_fields r =
  skip_ws r;
  let k = parse_string r in
  skip_ws r;
  expect r ':';
  let field = (k, parse_value r) in
  skip_ws r;
  if at r ',' then begin
    r.pos <- r.pos + 1;
    field :: parse_fields r
  end
  else begin
    expect r '}';
    [ field ]
  end

let of_string s =
  let r = { s; pos = 0 } in
  match
    let v = parse_value r in
    skip_ws r;
    if r.pos <> String.length s then fail r "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
