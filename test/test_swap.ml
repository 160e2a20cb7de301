(* Tests for swap deviations and swap stability. *)

module Strategy = Ncg.Strategy
module View = Ncg.View
module Swap = Ncg.Swap
module Deviation = Ncg.Deviation
module Lke = Ncg.Lke
module Rng = Ncg_prng.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let view_of s ~k u = View.extract s (Strategy.graph s) ~k u

let test_swap_deviations_count () =
  (* Player owns 2 of 4 possible targets in a 5-vertex full view:
     each owned target can be swapped to each of the 2 non-owned. *)
  let s = Strategy.of_buys ~n:5 [ (0, 1); (0, 2); (1, 3); (3, 4); (2, 4) ] in
  let v = view_of s ~k:10 0 in
  check_int "2 owned x 2 candidates" 4 (List.length (Deviation.swaps v v.View.owned));
  (* Each deviation keeps the edge count. *)
  List.iter
    (fun targets -> check_int "count preserved" 2 (List.length targets))
    (Deviation.swaps v v.View.owned)

let test_no_owned_no_swaps () =
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  check_int "leaf owns nothing" 0 (List.length (Deviation.swaps v v.View.owned))

let test_path_end_swap_unstable () =
  (* Path 0-1-2-3-4-5 with full view: player 0 owning (0,1) improves her
     eccentricity by swapping to (0,3) — swap instability. *)
  let s = Strategy.of_buys ~n:6 (List.init 5 (fun i -> (i, i + 1))) in
  check_bool "unstable" false (Swap.is_swap_stable_max ~k:100 s);
  let violations = Swap.max_swap_violations ~k:100 s in
  check_bool "player 0 flagged" true (List.mem_assoc 0 violations)

let test_path_local_swap_stable () =
  (* With k = 1 nobody can see a useful swap target. *)
  let s = Strategy.of_buys ~n:6 (List.init 5 (fun i -> (i, i + 1))) in
  check_bool "stable at k=1" true (Swap.is_swap_stable_max ~k:1 s)

let test_star_swap_stable () =
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  check_bool "max" true (Swap.is_swap_stable_max ~k:2 s);
  check_bool "sum" true (Swap.is_swap_stable_sum ~k:2 s)

let test_sum_swap_unstable () =
  (* Path, player 1 owns (1,2); full view. Swapping to (1,3) reduces her
     distance sum: 1+1+2+3 = 7 -> d(0)=1? wait player 1: distances with
     edge (1,3): 0:1, 2:2 (via 3), 3:1, 4:2 -> 6 < 7. *)
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  check_bool "sum swap unstable" false (Swap.is_swap_stable_sum ~k:100 s)

(* Every certified LKE must be swap stable (swaps ⊆ LKE deviations). *)
let prop_lke_implies_swap_stable =
  QCheck.Test.make ~name:"LKE implies swap stability" ~count:30
    QCheck.(
      quad (int_range 4 14) (int_range 2 4) (int_range 0 10_000)
        (float_range 0.3 4.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      (* Drive to an LKE first. *)
      let r = Ncg.Dynamics.run (Ncg.Dynamics.default_config ~alpha ~k) s in
      match r.Ncg.Dynamics.outcome with
      | Ncg.Dynamics.Converged _ -> Swap.is_swap_stable_max ~k r.Ncg.Dynamics.final
      | _ -> true)

let prop_swap_violation_implies_not_lke =
  QCheck.Test.make ~name:"a swap violation falsifies the LKE" ~count:30
    QCheck.(triple (int_range 4 12) (int_range 2 4) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      (* alpha is irrelevant to swaps; test against alpha = 1. *)
      if Swap.is_swap_stable_max ~k s then true
      else not (Lke.is_lke_max ~alpha:1.0 ~k s))

let () =
  Alcotest.run "swap"
    [
      ( "deviations",
        [
          Alcotest.test_case "count" `Quick test_swap_deviations_count;
          Alcotest.test_case "no owned" `Quick test_no_owned_no_swaps;
        ] );
      ( "stability",
        [
          Alcotest.test_case "path unstable (full view)" `Quick
            test_path_end_swap_unstable;
          Alcotest.test_case "path stable (k=1)" `Quick test_path_local_swap_stable;
          Alcotest.test_case "star stable" `Quick test_star_swap_stable;
          Alcotest.test_case "sum unstable" `Quick test_sum_swap_unstable;
        ] );
      ( "relations",
        [
          QCheck_alcotest.to_alcotest prop_lke_implies_swap_stable;
          QCheck_alcotest.to_alcotest prop_swap_violation_implies_not_lke;
        ] );
    ]
