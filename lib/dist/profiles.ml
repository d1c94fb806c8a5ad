(* The preference profiles D1-D4 of Figure 1(a).  The published figure is an
   image whose exact p_i values are not recoverable from the text, so we use
   four profiles spanning low to maximal entropy over m = 4 options with
   N_G = 10 non-faulty nodes; see DESIGN.md §3 for why this preserves the
   figure's qualitative content (higher H_0 -> lower Pr(A_G - B_G > t)). *)

type t = { name : string; p : float array }

let d1 = { name = "D1"; p = [| 0.70; 0.10; 0.10; 0.10 |] }
let d2 = { name = "D2"; p = [| 0.55; 0.25; 0.10; 0.10 |] }
let d3 = { name = "D3"; p = [| 0.40; 0.30; 0.20; 0.10 |] }
let d4 = { name = "D4"; p = [| 0.25; 0.25; 0.25; 0.25 |] }

let all = [ d1; d2; d3; d4 ]

let default_ng = 10

let distribution ?(ng = default_ng) t = Multinomial.create ~n:ng ~p:t.p

let initial_entropy ?(ng = default_ng) t = Entropy.initial_system ~ng t.p
