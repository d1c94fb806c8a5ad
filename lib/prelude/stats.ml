let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let variance l =
  match l with
  | [] | [ _ ] -> 0.0
  | l ->
      let m = mean l in
      let n = float_of_int (List.length l) in
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l /. (n -. 1.0)

let stddev l = sqrt (variance l)

let sorted_of l = List.sort compare l

let median l =
  match sorted_of l with
  | [] -> invalid_arg "Stats.median: empty list"
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let percentile l p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  match sorted_of l with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | s ->
      let n = List.length s in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then List.nth s lo
      else
        let w = rank -. float_of_int lo in
        ((1.0 -. w) *. List.nth s lo) +. (w *. List.nth s hi)

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: rest ->
      List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) rest

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  median : float;
  max : float;
}

let summarize l =
  let lo, hi = min_max l in
  {
    n = List.length l;
    mean = mean l;
    stddev = stddev l;
    min = lo;
    median = median l;
    max = hi;
  }

type histogram = { counts : int array; under : int; over : int }

let histogram_total h =
  Array.fold_left ( + ) (h.under + h.over) h.counts

let histogram ~bins ~lo ~hi values =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: hi must exceed lo";
  let counts = Array.make bins 0 in
  let under = ref 0 and over = ref 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let place v =
    if v < lo then incr under
    else if v > hi then incr over
    else if v = hi then
      (* The closed upper edge belongs to the last bin by construction, not
         by relying on the float division landing on [bins] exactly. *)
      counts.(bins - 1) <- counts.(bins - 1) + 1
    else begin
      let i = int_of_float ((v -. lo) /. width) in
      (* Guard against float rounding pushing an in-range value past the
         last bin (e.g. when [width] rounds down). *)
      let i = if i >= bins then bins - 1 else i in
      counts.(i) <- counts.(i) + 1
    end
  in
  List.iter place values;
  { counts; under = !under; over = !over }

(* Pearson chi-square statistic of observed counts against expected cell
   probabilities.  Cells with zero expectation must have zero observations
   (raises otherwise). *)
let chi_square ~observed ~expected_probs =
  let k = Array.length observed in
  if Array.length expected_probs <> k then
    invalid_arg "Stats.chi_square: arity mismatch";
  let trials = float_of_int (Array.fold_left ( + ) 0 observed) in
  if trials <= 0.0 then invalid_arg "Stats.chi_square: no observations";
  let stat = ref 0.0 in
  Array.iteri
    (fun i o ->
      let e = expected_probs.(i) *. trials in
      if e <= 0.0 then begin
        if o > 0 then
          invalid_arg "Stats.chi_square: observation in zero-probability cell"
      end
      else stat := !stat +. (((float_of_int o -. e) ** 2.0) /. e))
    observed;
  !stat

(* Upper critical values of the chi-square distribution at significance
   0.001, for 1..30 degrees of freedom (Abramowitz & Stegun table).  Used
   by the statistical self-tests: exceeding this is a one-in-a-thousand
   event for a correct sampler. *)
let chi_square_critical_999 = [|
  10.828; 13.816; 16.266; 18.467; 20.515; 22.458; 24.322; 26.124; 27.877;
  29.588; 31.264; 32.909; 34.528; 36.123; 37.697; 39.252; 40.790; 42.312;
  43.820; 45.315; 46.797; 48.268; 49.728; 51.179; 52.620; 54.052; 55.476;
  56.892; 58.301; 59.703;
|]

let chi_square_fits ~observed ~expected_probs =
  let nonzero =
    Array.fold_left
      (fun acc p -> if p > 0.0 then acc + 1 else acc)
      0 expected_probs
  in
  let dof = nonzero - 1 in
  if dof < 1 || dof > Array.length chi_square_critical_999 then
    invalid_arg "Stats.chi_square_fits: dof out of table range";
  chi_square ~observed ~expected_probs <= chi_square_critical_999.(dof - 1)

let binomial_confidence ~successes ~trials =
  (* Normal-approximation 95% confidence half-width for a proportion. *)
  if trials <= 0 then invalid_arg "Stats.binomial_confidence";
  let p = float_of_int successes /. float_of_int trials in
  let half = 1.96 *. sqrt (p *. (1.0 -. p) /. float_of_int trials) in
  (p, half)
