(* Tests for the SumNCG best response and the Proposition 2.2 rule. *)

module Strategy = Ncg.Strategy
module View = Ncg.View
module Sum_best_response = Ncg.Sum_best_response
module Deviation = Ncg.Deviation
module Game = Ncg.Game
module Rng = Ncg_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let view_of strategy ~k u = View.extract strategy (Strategy.graph strategy) ~k u

(* Prop. 2.2: a deviation is admissible when it keeps every view vertex
   reachable and every frontier vertex within distance k. *)
let admissible v targets = Deviation.evaluate Game.Sum ~alpha:1.0 v targets <> None
let current_cost ~alpha v = (Deviation.current Game.Sum ~alpha v).Deviation.cost
let exact ~alpha v = Deviation.exhaustive Game.Sum ~alpha v
let local_search ~alpha v = Deviation.local_search Game.Sum ~alpha v

let path5 = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]

(* --- Admissibility (Proposition 2.2) -------------------------------------- *)

let test_admissible_current () =
  let v = view_of path5 ~k:2 2 in
  check_bool "current strategy admissible" true
    (admissible v v.View.owned)

let test_inadmissible_disconnect () =
  (* Player 2 dropping the edge to 3 cuts the frontier vertex 4 off. *)
  let v = view_of path5 ~k:2 2 in
  check_bool "dropping 2-3 inadmissible" false (admissible v [])

let test_inadmissible_frontier_pushed () =
  (* Path 0..6, player 3 owns (3,4); k=3 so frontier = {0, 6}. Swapping the
     edge to buy (3,5) keeps 6 at distance <= 3 but puts 4 at distance 2 —
     4 is NOT frontier, so this stays admissible. Dropping it instead
     disconnects {4,5,6}: inadmissible. *)
  let s = Strategy.of_buys ~n:7 (List.init 6 (fun i -> (i, i + 1))) in
  let v = view_of s ~k:3 3 in
  let five = List.hd (View.of_host v [ 5 ]) in
  check_bool "swap admissible" true (admissible v [ five ]);
  check_bool "drop inadmissible" false (admissible v [])

let test_frontier_increase_rejected () =
  (* Star + pendant: center 0 adjacent to 1,2; 2-3 pendant. Player 1 with
     k=2 sees everything except nothing (n=4, k=2 sees all but 3 at
     distance 3? d(1,3)=3 so 3 is invisible; frontier = {2}). If player 1
     (owning the edge 1-0) swaps to buy the edge to 2 directly, then 0 is
     at distance 2 but 2 stays at distance 1 <= k: admissible. *)
  let s = Strategy.of_buys ~n:4 [ (1, 0); (0, 2); (2, 3) ] in
  let v = view_of s ~k:2 1 in
  check_int "sees 3 of 4" 3 (View.size v);
  let two = List.hd (View.of_host v [ 2 ]) in
  check_bool "swap to 2 admissible" true (admissible v [ two ])

(* --- Costs ------------------------------------------------------------------ *)

let test_cost_on_view () =
  let v = view_of path5 ~k:10 0 in
  (* Current: alpha*1 + (1+2+3+4). *)
  checkf "current" 11.0 (current_cost ~alpha:1.0 v);
  let two = List.hd (View.of_host v [ 2 ]) in
  (match Deviation.evaluate Game.Sum ~alpha:1.0 v [ two ] with
  | Some o ->
      (* Edges: 0-2 plus 1-2,2-3,3-4: d = 2,1,2,3 -> 8 + alpha. *)
      checkf "deviate" 9.0 o.Deviation.cost
  | None -> Alcotest.fail "connected");
  check_bool "disconnect gives None" true
    (Deviation.evaluate Game.Sum ~alpha:1.0 v [] = None)

(* --- Exact solver ------------------------------------------------------------- *)

let test_exact_star_leaf () =
  (* Star n=4 (center 0 owns all), leaf with alpha=0.3: buying both other
     leaves is the best response: 0.6 + 3 = 3.6. *)
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  checkf "current" 5.0 (current_cost ~alpha:0.3 v);
  let o = exact ~alpha:0.3 v in
  checkf "best" 3.6 o.Sum_best_response.cost;
  check_int "buys 2" 2 (List.length o.Sum_best_response.targets);
  (* With alpha = 1.5 staying put is best (the leaf owns nothing). *)
  let o2 = exact ~alpha:1.5 v in
  checkf "stays" 5.0 o2.Sum_best_response.cost

let test_exact_respects_admissibility () =
  (* Player 2 on the path must keep 0 and 4 within k=2; check the exact
     optimizer only returns admissible strategies. *)
  let v = view_of path5 ~k:2 2 in
  let o = exact ~alpha:0.2 v in
  check_bool "admissible" true (admissible v o.Sum_best_response.targets)

let test_exact_too_large () =
  let s = Strategy.of_buys ~n:20 (Ncg_gen.Classic.star_buys 20) in
  let v = view_of s ~k:2 1 in
  Alcotest.check_raises "view too large"
    (Invalid_argument "Deviation.exhaustive: view too large for enumeration")
    (fun () -> ignore (exact ~alpha:1.0 v))

(* --- Branch and bound -------------------------------------------------------- *)

let test_bb_matches_exact_small () =
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  let e = exact ~alpha:0.3 v in
  let b = Sum_best_response.branch_and_bound ~alpha:0.3 v in
  checkf "same optimum" e.Sum_best_response.cost b.Sum_best_response.cost

let test_bb_handles_larger_views () =
  (* A 26-vertex full-knowledge view: 2^25 enumeration is hopeless, the
     B&B finishes. Star center + leaves, alpha = 0.4: a leaf's best
     response buys all 24 other leaves (cost 0.4*24 + 25 = 34.6 < 49). *)
  let n = 26 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n) in
  let v = view_of s ~k:2 1 in
  let b = Sum_best_response.branch_and_bound ~alpha:0.4 v in
  checkf "optimal on K1,25" (0.4 *. 24.0 +. 25.0) b.Sum_best_response.cost;
  check_int "buys all leaves" 24 (List.length b.Sum_best_response.targets)

let test_bb_size_guard () =
  let s = Strategy.of_buys ~n:40 (Ncg_gen.Classic.star_buys 40) in
  let v = view_of s ~k:2 1 in
  Alcotest.check_raises "guard"
    (Invalid_argument "Sum_best_response.branch_and_bound: view too large")
    (fun () -> ignore (Sum_best_response.branch_and_bound ~alpha:1.0 v))

let prop_bb_matches_enumeration =
  QCheck.Test.make ~name:"branch&bound cost = enumeration cost" ~count:60
    QCheck.(
      quad (int_range 2 9) (int_range 1 3) (int_range 0 10_000) (float_range 0.1 3.0))
    (fun (n, k, seed, alpha) ->
      let rng = Ncg_prng.Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let e = exact ~alpha v in
      let b = Sum_best_response.branch_and_bound ~alpha v in
      abs_float (e.Sum_best_response.cost -. b.Sum_best_response.cost) < 1e-9)

(* --- Local search ---------------------------------------------------------------- *)

let test_local_search_swap () =
  (* Path 0..6, player 3, alpha=1, full view: swapping (3,4) for (3,5)
     strictly reduces the distance sum (12 -> 11). *)
  let s = Strategy.of_buys ~n:7 (List.init 6 (fun i -> (i, i + 1))) in
  let v = view_of s ~k:10 3 in
  let o = local_search ~alpha:1.0 v in
  check_bool "improved" true
    (o.Sum_best_response.cost < current_cost ~alpha:1.0 v -. 1e-9)

let test_local_search_stable_point () =
  (* Star leaf with expensive edges: local search stays put. *)
  let s = Strategy.of_buys ~n:5 (Ncg_gen.Classic.star_buys 5) in
  let v = view_of s ~k:2 1 in
  let o = local_search ~alpha:3.0 v in
  Alcotest.(check (list int)) "unchanged" v.View.owned o.Sum_best_response.targets

let test_improving_modes () =
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  check_bool "exact improving" true
    (Sum_best_response.improving ~alpha:0.3 ~mode:(`Exact 16) v <> None);
  check_bool "local improving" true
    (Sum_best_response.improving ~alpha:0.3 ~mode:`Local_search v <> None);
  check_bool "no improvement at alpha=2" true
    (Sum_best_response.improving ~alpha:2.0 ~mode:(`Exact 16) v = None)

(* --- Cancellation ------------------------------------------------------------------ *)

(* Player 13 of the n = 40 random tree from seed 5 sees 18 candidates at
   k = 4; at alpha = 0.7 both engines take several steps, so a tiny move
   budget must cut them off instead of being ignored. *)
let budget_view () =
  let s = Ncg.Experiment.initial_tree ~seed:5 ~n:40 in
  let v = view_of s ~k:4 13 in
  check_int "18 candidates" 19 (View.size v);
  v

let exhausts budget mode =
  let v = budget_view () in
  Alcotest.check_raises "budget exhausted"
    (Ncg_fault.Cancel.Timed_out "step budget exhausted") (fun () ->
      Ncg_fault.Cancel.with_step_budget budget (fun () ->
          ignore (Sum_best_response.improving ~alpha:0.7 ~mode v)))

let test_bb_polls () = exhausts 3 (`Branch_and_bound 34)
let test_local_search_polls () = exhausts 1 `Local_search

(* --- Properties --------------------------------------------------------------------- *)

let random_profile seed n =
  let rng = Rng.create seed in
  let g = Ncg_gen.Random_tree.generate rng n in
  Strategy.random_orientation rng g

let prop_exact_beats_local_search =
  QCheck.Test.make ~name:"exact <= local search <= current" ~count:50
    QCheck.(
      quad (int_range 2 8) (int_range 1 3) (int_range 0 10_000) (float_range 0.1 3.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let exact = exact ~alpha v in
      let local = local_search ~alpha v in
      let current = current_cost ~alpha v in
      exact.Sum_best_response.cost <= local.Sum_best_response.cost +. 1e-9
      && local.Sum_best_response.cost <= current +. 1e-9)

let prop_exact_admissible =
  QCheck.Test.make ~name:"exact best responses are always admissible" ~count:50
    QCheck.(
      quad (int_range 2 8) (int_range 1 3) (int_range 0 10_000) (float_range 0.1 3.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let o = exact ~alpha v in
      admissible v o.Sum_best_response.targets)

let prop_cost_consistent =
  QCheck.Test.make ~name:"reported cost matches re-evaluation" ~count:50
    QCheck.(
      quad (int_range 2 8) (int_range 1 3) (int_range 0 10_000) (float_range 0.1 3.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let o = exact ~alpha v in
      match Deviation.evaluate Game.Sum ~alpha v o.Sum_best_response.targets with
      | Some c -> abs_float (c.Deviation.cost -. o.Sum_best_response.cost) < 1e-9
      | None -> false)

let () =
  Alcotest.run "sum_best_response"
    [
      ( "admissibility",
        [
          Alcotest.test_case "current admissible" `Quick test_admissible_current;
          Alcotest.test_case "disconnect" `Quick test_inadmissible_disconnect;
          Alcotest.test_case "frontier rules" `Quick test_inadmissible_frontier_pushed;
          Alcotest.test_case "swap near frontier" `Quick test_frontier_increase_rejected;
        ] );
      ( "costs",
        [ Alcotest.test_case "cost on view" `Quick test_cost_on_view ] );
      ( "exact",
        [
          Alcotest.test_case "star leaf" `Quick test_exact_star_leaf;
          Alcotest.test_case "respects admissibility" `Quick test_exact_respects_admissibility;
          Alcotest.test_case "size guard" `Quick test_exact_too_large;
        ] );
      ( "branch_and_bound",
        [
          Alcotest.test_case "matches exact" `Quick test_bb_matches_exact_small;
          Alcotest.test_case "larger views" `Quick test_bb_handles_larger_views;
          Alcotest.test_case "size guard" `Quick test_bb_size_guard;
          QCheck_alcotest.to_alcotest prop_bb_matches_enumeration;
        ] );
      ( "local_search",
        [
          Alcotest.test_case "finds swap" `Quick test_local_search_swap;
          Alcotest.test_case "stable point" `Quick test_local_search_stable_point;
          Alcotest.test_case "improving modes" `Quick test_improving_modes;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "branch and bound obeys the move budget" `Quick
            test_bb_polls;
          Alcotest.test_case "local search obeys the move budget" `Quick
            test_local_search_polls;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_exact_beats_local_search;
          QCheck_alcotest.to_alcotest prop_exact_admissible;
          QCheck_alcotest.to_alcotest prop_cost_consistent;
        ] );
    ]
