(* Tests for the prelude: PRNG determinism and distributional sanity,
   statistics, and table rendering. *)

module Rng = Vv_prelude.Rng
module Stats = Vv_prelude.Stats
module Table = Vv_prelude.Table

let check = Alcotest.check
let check_int = check Alcotest.int
let check_float = check (Alcotest.float 1e-9)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.bits a) in
  let ys = List.init 50 (fun _ -> Rng.bits b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets within 3x of expectation. *)
  let r = Rng.create 11 in
  let counts = Array.make 10 0 in
  let trials = 10_000 in
  for _ = 1 to trials do
    let i = Rng.int r 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket plausible" true (c > 700 && c < 1300))
    counts

let test_categorical () =
  let r = Rng.create 3 in
  let p = [| 0.7; 0.2; 0.1 |] in
  let counts = Array.make 3 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let i = Rng.categorical r p in
    counts.(i) <- counts.(i) + 1
  done;
  let freq i = float_of_int counts.(i) /. float_of_int trials in
  Alcotest.(check bool) "p0" true (abs_float (freq 0 -. 0.7) < 0.02);
  Alcotest.(check bool) "p1" true (abs_float (freq 1 -. 0.2) < 0.02);
  Alcotest.(check bool) "p2" true (abs_float (freq 2 -. 0.1) < 0.02)

let test_categorical_zero_mass_tail () =
  (* Regression: the fallback for "u rounded past the accumulated mass"
     used to return the raw last index even when that cell had p = 0.
     With a subnormal total mass the rounding is forced: for any draw
     u0 > 0.5, [u0 *. 2^-1074] rounds up to [2^-1074] itself, so the scan
     exhausts the accumulated mass on roughly half of all draws and the
     pre-fix code returned index 1 — an outcome of probability zero. *)
  let p = [| ldexp 1.0 (-1074); 0.0 |] in
  let r = Rng.create 11 in
  for _ = 1 to 200 do
    let i = Rng.categorical r p in
    Alcotest.(check bool) "sampled index has positive mass" true (p.(i) > 0.0)
  done;
  (* Zero cells before the positive tail were never affected; pin that. *)
  let r = Rng.create 12 in
  let p = [| 0.0; 0.3; 0.7 |] in
  for _ = 1 to 200 do
    Alcotest.(check bool) "leading zero cell never drawn" true
      (Rng.categorical r p > 0)
  done

let test_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_sample_without_replacement () =
  let r = Rng.create 5 in
  let s = Rng.sample_without_replacement r ~k:5 ~n:10 in
  check_int "size" 5 (List.length s);
  check_int "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> Alcotest.(check bool) "range" true (x >= 0 && x < 10)) s

let test_stats_basics () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "variance" 3.7 (Stats.variance [ 1.0; 2.0; 3.0; 4.0; 6.0 ]);
  check_float "p0" 1.0 (Stats.percentile [ 1.0; 2.0; 3.0 ] 0.0);
  check_float "p100" 3.0 (Stats.percentile [ 1.0; 2.0; 3.0 ] 100.0);
  check_float "p50" 2.0 (Stats.percentile [ 1.0; 2.0; 3.0 ] 50.0)

let test_stats_summary () =
  let s = Stats.summarize [ 2.0; 4.0; 6.0; 8.0 ] in
  check_int "n" 4 s.Stats.n;
  check_float "mean" 5.0 s.Stats.mean;
  check_float "min" 2.0 s.Stats.min;
  check_float "max" 8.0 s.Stats.max

let test_histogram () =
  let h = Stats.histogram ~bins:4 ~lo:0.0 ~hi:4.0 [ 0.5; 1.5; 1.6; 3.9; 4.0; -1.0; 5.0 ] in
  Alcotest.(check (array int)) "bins" [| 1; 2; 0; 2 |] h.Stats.counts;
  (* Regression: outliers used to be dropped without signal — they must be
     reported in the under/over cells and counted in the total. *)
  check_int "under" 1 h.Stats.under;
  check_int "over" 1 h.Stats.over;
  check_int "no sample lost" 7 (Stats.histogram_total h);
  (* The closed upper edge lands in the last bin by construction, even when
     the bin width is not exactly representable. *)
  let edge = Stats.histogram ~bins:3 ~lo:0.0 ~hi:1.0 [ 1.0; 1.0 ] in
  Alcotest.(check (array int)) "v = hi in last bin" [| 0; 0; 2 |] edge.Stats.counts;
  check_int "edge is not an outlier" 0 edge.Stats.over

let test_chi_square () =
  (* A perfectly matching sample has statistic 0. *)
  check_float "exact fit" 0.0
    (Stats.chi_square ~observed:[| 50; 50 |] ~expected_probs:[| 0.5; 0.5 |]);
  (* A wildly off sample fails the 0.001 test. *)
  Alcotest.(check bool) "bad fit rejected" false
    (Stats.chi_square_fits ~observed:[| 100; 0 |]
       ~expected_probs:[| 0.5; 0.5 |]);
  Alcotest.check_raises "arity" (Invalid_argument "Stats.chi_square: arity mismatch")
    (fun () ->
      ignore (Stats.chi_square ~observed:[| 1 |] ~expected_probs:[| 0.5; 0.5 |]))

let test_rng_chi_square_uniform () =
  (* Rng.int must pass a chi-square goodness-of-fit against uniform. *)
  let r = Rng.create 1234 in
  let k = 8 in
  let observed = Array.make k 0 in
  for _ = 1 to 8000 do
    let i = Rng.int r k in
    observed.(i) <- observed.(i) + 1
  done;
  Alcotest.(check bool) "uniform fit" true
    (Stats.chi_square_fits ~observed
       ~expected_probs:(Array.make k (1.0 /. float_of_int k)))

let test_binomial_confidence () =
  let p, hw = Stats.binomial_confidence ~successes:50 ~trials:100 in
  check_float "p" 0.5 p;
  Alcotest.(check bool) "half width plausible" true (hw > 0.05 && hw < 0.15)

let test_table () =
  let t =
    Table.create ~title:"demo" ~headers:[ "name"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  check_int "rows" 2 (List.length (Table.rows t));
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "only-one" ]);
  let csv = Table.to_csv t in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 0 && String.sub csv 0 10 = "name,value")

let test_cells () =
  check (Alcotest.string) "fcell int" "3" (Table.fcell 3.0);
  check (Alcotest.string) "fcell frac" "0.2500" (Table.fcell 0.25);
  check (Alcotest.string) "icell" "42" (Table.icell 42);
  check (Alcotest.string) "bcell" "yes" (Table.bcell true)

(* Property: percentile is monotone in p. *)
let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone"
    QCheck.(pair (list_of_size Gen.(int_range 1 20) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (l, (p1, p2)) ->
      QCheck.assume (l <> []);
      let lo, hi = if p1 <= p2 then (p1, p2) else (p2, p1) in
      Stats.percentile l lo <= Stats.percentile l hi +. 1e-9)

(* Property: shuffle preserves multiset. *)
let prop_shuffle_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset"
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let r = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle r a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest
    [ prop_percentile_monotone; prop_shuffle_multiset ]

(* --- json --- *)

module Json = Vv_prelude.Json

let json_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%S should parse: %s" s msg

let json_err s =
  match Json.of_string s with
  | Ok _ -> Alcotest.failf "%S should be rejected" s
  | Error msg -> msg

let check_string = check Alcotest.string

let json_string s =
  match json_ok s with
  | Json.String v -> v
  | _ -> Alcotest.failf "%S is not a string" s

let test_json_unicode_escapes () =
  check_string "ascii escape" "A" (json_string {|"A"|});
  check_string "two-byte" "\xc3\xa9" (json_string "\"\\u00e9\"");
  (* BMP escape decodes to UTF-8 bytes (U+2603, snowman). *)
  check_string "snowman" "\xe2\x98\x83" (json_string "\"\\u2603\"");
  (* A surrogate pair combines into one astral code point (U+1D11E,
     musical G clef). This is the regression: the parser used to reject
     every \uD800-\uDFFF escape outright. *)
  check_string "surrogate pair" "\xf0\x9d\x84\x9e"
    (json_string "\"\\ud834\\udd1e\"");
  (* Case-insensitive hex. *)
  check_string "upper hex" "\xf0\x9d\x84\x9e"
    (json_string "\"\\uD834\\uDD1E\"");
  (* Raw UTF-8 passes through untouched. *)
  check_string "raw utf-8" "\xe2\x98\x83" (json_string "\"\xe2\x98\x83\"")

let test_json_lone_surrogates () =
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "lone high" true
    (contains "surrogate" (json_err {|"\ud834"|}));
  Alcotest.(check bool) "lone low" true
    (contains "surrogate" (json_err {|"\udd1e"|}));
  Alcotest.(check bool) "high then non-escape" true
    (contains "surrogate" (json_err {|"\ud834x"|}));
  Alcotest.(check bool) "high then non-low escape" true
    (contains "surrogate" (json_err {|"\ud834A"|}));
  ignore (json_err {|"\u12"|});
  ignore (json_err {|"\u12g4"|});
  (* int_of_string accepts underscores and 0x prefixes; the hex scanner
     must not. *)
  ignore (json_err {|"\u1_34"|})

let test_json_roundtrip () =
  let samples =
    [
      {|"☃"|}; {|"𝄞"|}; {|"  low "|};
      {|{"k":["😀",1,-2.5,true,null]}|};
    ]
  in
  List.iter
    (fun s ->
      let v = json_ok s in
      let v' = json_ok (Json.to_string v) in
      Alcotest.(check bool) "print/parse fixpoint" true (v = v'))
    samples

(* Exact printer bytes: ints, floats (NaN and infinities print null),
   every escaped byte class, raw DEL and raw UTF-8, empty containers. *)
let test_json_print_table () =
  List.iter
    (fun (v, bytes) -> check_string bytes bytes (Json.to_string v))
    Json.
      [
        (Int 0, "0");
        (Int (-1), "-1");
        (Int max_int, "4611686018427387903");
        (Int min_int, "-4611686018427387904");
        (Float 1.0, "1.0");
        (Float 0.1, "0.1");
        (Float 1e300, "1e+300");
        (Float (-0.0), "-0.0");
        (Float 1e14, "100000000000000.0");
        (Float 1e15, "1e+15");
        (Float nan, "null");
        (Float infinity, "null");
        (String "\"", {|"\""|});
        (String "\\", {|"\\"|});
        (String "\n", {|"\n"|});
        (String "\r", {|"\r"|});
        (String "\t", {|"\t"|});
        (String "\x01", {|"\u0001"|});
        (String "\x1f", {|"\u001f"|});
        (String "\b\012/", {|"\u0008\u000c/"|});
        (String "\x7f", "\"\x7f\"");
        (String "\xc3\xa9\xe2\x98\x83", "\"\xc3\xa9\xe2\x98\x83\"");
        (String "a\"b\\c\nd", {|"a\"b\\c\nd"|});
        (List [], "[]");
        (Obj [], "{}");
        ( Obj
            [
              ("k\"", Null);
              ("a", List [ Int 1; Null; Bool true; Bool false ]);
            ],
          {|{"k\"":null,"a":[1,null,true,false]}|} );
      ]

(* Exact parse results and error messages, offsets included: the number
   forms the parser accepts or rejects, and malformed documents. *)
let test_json_parse_table () =
  let show = function
    | Ok v ->
        let kind =
          match v with Json.Int _ -> "Int" | Json.Float _ -> "Float" | _ -> ""
        in
        Fmt.str "Ok %s %s" kind (Json.to_string v)
    | Error msg -> "Error " ^ msg
  in
  List.iter
    (fun (input, expected) ->
      check_string (Fmt.str "%S" input) expected (show (Json.of_string input)))
    [
      ("01", "Ok Int 1");
      ("00", "Ok Int 0");
      ("-0", "Ok Int 0");
      ("-01", "Ok Int -1");
      ("+1", "Ok Int 1");
      ("1.", "Ok Float 1.0");
      (".5", "Ok Float 0.5");
      ("1e2", "Ok Float 100.0");
      ("2e-1", "Ok Float 0.2");
      ("1E400", "Ok Float null");
      ("4611686018427387903", "Ok Int 4611686018427387903");
      ("4611686018427387904", "Ok Float 4.61168601843e+18");
      ("-4611686018427387904", "Ok Int -4611686018427387904");
      ("1234567890123456789", "Ok Int 1234567890123456789");
      ("99999999999999999999", "Ok Float 1e+20");
      (" 7 ", "Ok Int 7");
      ("-", "Error invalid number at offset 1");
      ("+", "Error invalid number at offset 1");
      ("1-2", "Error invalid number at offset 3");
      ("--1", "Error invalid number at offset 3");
      ("1e", "Error invalid number at offset 2");
      ("-inf", "Error invalid number at offset 1");
      ("x", "Error invalid number at offset 0");
      ("0x10", "Error trailing garbage at offset 1");
      ("1_000", "Error trailing garbage at offset 1");
      ("", "Error unexpected end of input at offset 0");
      ("tru", "Error expected true at offset 0");
      ("nan", "Error expected null at offset 0");
      ("[1,fals]", "Error expected false at offset 3");
      ("truex", "Error trailing garbage at offset 4");
      ({|{"a" 1}|}, "Error expected ':' at offset 5");
      ({|{"a":1,}|}, {|Error expected '"' at offset 7|});
      ({|{"a":1 "b":2}|}, "Error expected '}' at offset 7");
      ("[1,2", "Error expected ']' at offset 4");
      ("[1 2]", "Error expected ']' at offset 3");
      ("[1] x", "Error trailing garbage at offset 4");
      ({|"abc|}, "Error unterminated string at offset 4");
      ({|"ab\|}, "Error unterminated escape at offset 4");
      ({|"\q"|}, "Error invalid escape at offset 3");
      ({|"\u12"|}, "Error truncated \\u escape at offset 3");
      ({|"\u12g4"|}, "Error invalid \\u escape at offset 3");
      ({|"\udd1e"|}, "Error lone low surrogate at offset 7");
      ( {|"\ud834x"|},
        "Error high surrogate without a following \\u escape at offset 7" );
      ( {|"\ud834\u0041"|},
        "Error high surrogate not followed by a low surrogate at offset 13" );
      ("\"a\x01b\"", {|Ok  "a\u0001b"|});
      ( {|{"a":[1,{"b":null}],"c":"x\ny"}|},
        {|Ok  {"a":[1,{"b":null}],"c":"x\ny"}|} );
      ("[ ]", "Ok  []");
      ("{ }", "Ok  {}");
    ]

(* Float-free trees over arbitrary byte strings print and parse back to
   themselves. *)
let json_tree_gen =
  let open QCheck.Gen in
  let bytes n = string_size ~gen:char (int_bound n) in
  sized
  @@ fix (fun self size ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun i -> Json.Int i) (oneofl [ 0; -1; max_int; min_int ]);
               map (fun s -> Json.String s) (bytes 12);
             ]
         in
         if size <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (size / 4))) );
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair (bytes 8) (self (size / 4))))
               );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_string inverts to_string"
    (QCheck.make ~print:Json.to_string json_tree_gen)
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

(* --- io --- *)

module Io = Vv_prelude.Io

let test_write_atomic () =
  let dir = Filename.temp_file "vv_io" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "out.csv" in
  (match Io.write_atomic ~path "first\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %s" e);
  (match Io.write_atomic ~path "second\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "overwrite failed: %s" e);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  check_string "overwrite wins" "second" line;
  (* No temp droppings left next to the target. *)
  check_int "only the target remains" 1 (Array.length (Sys.readdir dir));
  Sys.remove path;
  Sys.rmdir dir

let test_write_atomic_unwritable () =
  match Io.write_atomic ~path:"/nonexistent-dir/sub/out.csv" "x" with
  | Ok () -> Alcotest.fail "write into a missing directory should fail"
  | Error msg -> Alcotest.(check bool) "message nonempty" true (msg <> "")

let test_rng_derive () =
  (* Stable values: Engine slot seeding and Executor.derive_seed both sit
     on this function, so its outputs are load-bearing for goldens. *)
  check_int "matches two-step avalanche" (Rng.bits (Rng.create (Rng.bits (Rng.create 7) lxor 3)))
    (Rng.derive 7 3);
  Alcotest.(check bool) "indices separate" true
    (Rng.derive 7 0 <> Rng.derive 7 1)

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "categorical frequencies" `Quick test_categorical;
          Alcotest.test_case "categorical zero-mass tail (regression)" `Quick
            test_categorical_zero_mass_tail;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "sampling without replacement" `Quick
            test_sample_without_replacement;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "binomial confidence" `Quick test_binomial_confidence;
          Alcotest.test_case "chi-square" `Quick test_chi_square;
          Alcotest.test_case "rng uniformity (chi-square)" `Quick
            test_rng_chi_square_uniform;
        ] );
      ( "table",
        [
          Alcotest.test_case "render and csv" `Quick test_table;
          Alcotest.test_case "cell formatting" `Quick test_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "unicode escapes decode to UTF-8" `Quick
            test_json_unicode_escapes;
          Alcotest.test_case "lone surrogates and bad hex rejected" `Quick
            test_json_lone_surrogates;
          Alcotest.test_case "print/parse round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "to_string bytes" `Quick test_json_print_table;
          Alcotest.test_case "of_string results and errors" `Quick
            test_json_parse_table;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "io",
        [
          Alcotest.test_case "write_atomic replaces without droppings" `Quick
            test_write_atomic;
          Alcotest.test_case "write_atomic surfaces unwritable paths" `Quick
            test_write_atomic_unwritable;
          Alcotest.test_case "rng derive is the pinned avalanche" `Quick
            test_rng_derive;
        ] );
      ("properties", qcheck_cases);
    ]
