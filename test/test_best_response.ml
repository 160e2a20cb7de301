(* Tests for the exact MaxNCG best response (Section 5.3 reduction). *)

module Strategy = Ncg.Strategy
module View = Ncg.View
module Best_response = Ncg.Best_response
module Deviation = Ncg.Deviation
module Game = Ncg.Game
module Rng = Ncg_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let view_of strategy ~k u = View.extract strategy (Strategy.graph strategy) ~k u

(* --- Hand-computed cases -------------------------------------------------- *)

let test_current_cost () =
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let v = view_of s ~k:10 0 in
  let current = Deviation.current Game.Max ~alpha:1.0 v in
  check_int "usage" 4 current.Deviation.usage;
  checkf "cost" 5.0 current.Deviation.cost

let test_path_end_player () =
  (* Path 0-1-2-3-4, player 0, alpha 1, full view: best cost is 4
     (e.g. buy {2,4}: eccentricity 2). *)
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let v = view_of s ~k:10 0 in
  let o = Best_response.compute ~alpha:1.0 v in
  checkf "best cost" 4.0 o.Best_response.cost;
  check_int "consistent usage" o.Best_response.usage
    (int_of_float (o.Best_response.cost -. (1.0 *. float_of_int (List.length o.Best_response.targets))))

let test_star_leaf_small_alpha () =
  (* Star n=4, center 0 owns all. A leaf can reach eccentricity 1 by buying
     the 2 other leaves: improving iff 2*alpha + 1 < 2. *)
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  let cheap = Best_response.compute ~alpha:0.3 v in
  checkf "buys both leaves" 1.6 cheap.Best_response.cost;
  check_int "two edges" 2 (List.length cheap.Best_response.targets);
  let dear = Best_response.compute ~alpha:0.7 v in
  checkf "stays put" 2.0 dear.Best_response.cost;
  check_int "no edges" 0 (List.length dear.Best_response.targets)

let test_star_center_stays () =
  (* The center owning everything has no improving move for alpha > 0:
     dropping disconnects, buying is impossible (already adjacent). *)
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let v = view_of s ~k:2 0 in
  check_bool "no improvement" true (Best_response.improving ~alpha:2.0 v = None)

let test_free_dominators_used () =
  (* Path 0-1-2 where 1 bought the edge to 2. Player 2 owns nothing;
     with alpha=0.5 buying the edge to 0 gives cost 1.5 < 2. *)
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2) ] in
  let v = view_of s ~k:2 2 in
  let o = Best_response.compute ~alpha:0.5 v in
  checkf "cost" 1.5 o.Best_response.cost;
  Alcotest.(check (list int)) "buys 0" [ 0 ] (View.to_host v o.Best_response.targets)

let test_edge_removal_found () =
  (* Triangle, each buys the next edge, alpha large: dropping the owned
     edge saves alpha and raises eccentricity only 1 -> 2. *)
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  let v = view_of s ~k:1 0 in
  let o = Best_response.compute ~alpha:5.0 v in
  checkf "drops the edge" 2.0 o.Best_response.cost;
  check_int "owns nothing" 0 (List.length o.Best_response.targets)

let test_singleton_view () =
  let s = Strategy.create ~n:1 in
  let g = Strategy.graph s in
  let v = View.extract s g ~k:3 0 in
  let o = Best_response.compute ~alpha:1.0 v in
  checkf "zero cost" 0.0 o.Best_response.cost

let test_local_vs_full_view () =
  (* Cycle C10, k=2: a player only sees a path of length 4 and cannot tell
     buying a chord helps; with full knowledge (k large) and small alpha
     there are improving moves. *)
  let s = Strategy.of_buys ~n:10 (Ncg_gen.Classic.cycle_buys 10) in
  let local = view_of s ~k:2 0 in
  check_bool "locally stable at alpha=1.2" true
    (Best_response.improving ~alpha:1.2 local = None);
  let full = view_of s ~k:100 0 in
  check_bool "globally improvable at alpha=1.2" true
    (Best_response.improving ~alpha:1.2 full <> None)

let test_greedy_never_beats_exact () =
  let s = Strategy.of_buys ~n:10 (Ncg_gen.Classic.cycle_buys 10) in
  let v = view_of s ~k:100 0 in
  let exact = Best_response.compute ~solver:`Exact ~alpha:0.4 v in
  let greedy = Best_response.compute ~solver:`Greedy ~alpha:0.4 v in
  check_bool "greedy >= exact" true
    (greedy.Best_response.cost >= exact.Best_response.cost -. 1e-9)

let test_improving_threshold () =
  (* improving = None exactly when best cost >= current. *)
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  (* At alpha = 0.5, buying both leaves costs 2.0 = current: not strictly
     improving. *)
  check_bool "tie is not improving" true (Best_response.improving ~alpha:0.5 v = None)

(* --- Restricted variants (budget cap, host graph) ---------------------------- *)

let test_budget_cap () =
  (* Star leaf at alpha = 0.3 buys both other leaves unrestricted, but a
     budget of 1 forces the single-edge compromise. *)
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  let unrestricted = Best_response.compute ~alpha:0.3 v in
  check_int "buys 2" 2 (List.length unrestricted.Best_response.targets);
  let capped = Best_response.compute ~max_edges:1 ~alpha:0.3 v in
  check_bool "within budget" true (List.length capped.Best_response.targets <= 1);
  check_bool "costlier than unrestricted" true
    (capped.Best_response.cost >= unrestricted.Best_response.cost -. 1e-9)

let test_budget_current_violation () =
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let v = view_of s ~k:2 0 in
  Alcotest.check_raises "center owns 5 > 2"
    (Invalid_argument "Best_response.compute: current strategy exceeds max_edges")
    (fun () -> ignore (Best_response.compute ~max_edges:2 ~alpha:1.0 v))

let test_allowed_targets () =
  (* Path 0..4, player 0, alpha = 1, full view. Unrestricted best response
     has cost 4 (e.g. {2,4}); restricted to targets {1, 2} the best is
     buying {2} alone (cost 1 + 3). *)
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let v = view_of s ~k:10 0 in
  let one = List.hd (View.of_host v [ 1 ]) in
  let two = List.hd (View.of_host v [ 2 ]) in
  let restricted = Best_response.compute ~allowed:[ one; two ] ~alpha:1.0 v in
  check_bool "targets within whitelist" true
    (List.for_all (fun t -> t = one || t = two) restricted.Best_response.targets);
  checkf "cost" 4.0 restricted.Best_response.cost;
  Alcotest.check_raises "current outside whitelist"
    (Invalid_argument "Best_response.compute: current strategy outside allowed targets")
    (fun () -> ignore (Best_response.compute ~allowed:[ two ] ~alpha:1.0 v))

let prop_restrictions_never_improve_cost =
  QCheck.Test.make ~name:"restricted best responses never beat unrestricted" ~count:60
    QCheck.(
      quad (int_range 3 12) (int_range 1 3) (int_range 0 10_000) (float_range 0.2 3.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let free = Best_response.compute ~alpha v in
      let budget = List.length v.View.owned + 1 in
      let capped = Best_response.compute ~max_edges:budget ~alpha v in
      capped.Best_response.cost >= free.Best_response.cost -. 1e-9
      && List.length capped.Best_response.targets <= budget)

(* --- Local search (better responses) ---------------------------------------- *)

let random_profile seed n =
  let rng = Rng.create seed in
  let g = Ncg_gen.Random_tree.generate rng n in
  Strategy.random_orientation rng g

let test_local_search_drop () =
  (* Triangle with expensive edges: local search finds the drop. *)
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  let v = view_of s ~k:1 0 in
  let o = Deviation.local_search Game.Max ~alpha:5.0 v in
  checkf "drops" 2.0 o.Best_response.cost

let test_local_search_stays_at_optimum () =
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let v = view_of s ~k:2 0 in
  let o = Deviation.local_search Game.Max ~alpha:2.0 v in
  Alcotest.(check (list int)) "center unchanged" v.View.owned o.Best_response.targets

let prop_local_search_between_current_and_best =
  QCheck.Test.make ~name:"best <= local search <= current (Max)" ~count:80
    QCheck.(
      quad (int_range 2 12) (int_range 1 4) (int_range 0 10_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let best = Best_response.compute ~alpha v in
      let local = Deviation.local_search Game.Max ~alpha v in
      best.Best_response.cost <= local.Best_response.cost +. 1e-9
      && local.Best_response.cost
         <= (Deviation.current Game.Max ~alpha v).Deviation.cost +. 1e-9)

(* --- Properties ------------------------------------------------------------ *)

(* Views with at most 12 candidates: random trees, or G(n,p) graphs for
   cyclic views, with every edge given to a random endpoint so that
   players have in-buyers. *)
let prop_matches_brute_force =
  QCheck.Test.make ~name:"MDS reduction matches brute force over subsets" ~count:150
    QCheck.(
      quad (int_range 4 13) (int_range 1 4) (int_range 0 100_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g =
        if seed mod 2 = 0 then Ncg_gen.Random_tree.generate rng n
        else Ncg_gen.Erdos_renyi.generate rng ~n ~p:(0.15 +. (0.5 *. Rng.float rng))
      in
      let s = Strategy.random_orientation rng g in
      let v = View.extract s (Strategy.graph s) ~k (Rng.int rng n) in
      let oracle = (Deviation.exhaustive Game.Max ~alpha v).Deviation.cost in
      List.for_all
        (fun solver ->
          let o = Best_response.compute ~solver ~alpha v in
          abs_float (o.Best_response.cost -. oracle) < 1e-9)
        [ `Exact; `Budgeted 50_000 ])

(* The same oracle under [?allowed] and [?max_edges]: every subset of the
   view's non-player vertices, kept only when it lies in the whitelist and
   within the edge cap, priced by [Deviation.evaluate]; the current
   strategy (which satisfies both) wins ties. Forbidden targets reach the
   radius-0 closed form and tight caps the counting-bound skip. *)
let restricted_exhaustive ~alpha ~allowed ~max_edges (v : View.t) =
  let others =
    Array.of_list
      (List.filter (( <> ) v.View.player) (List.init (View.size v) Fun.id))
  in
  let m = Array.length others in
  let best = ref (Deviation.current Game.Max ~alpha v) in
  for mask = 0 to (1 lsl m) - 1 do
    let targets = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init m Fun.id) in
    let targets = List.map (fun i -> others.(i)) targets in
    if List.for_all (fun t -> List.mem t allowed) targets && List.length targets <= max_edges
    then
      match Deviation.evaluate Game.Max ~alpha v targets with
      | Some o when o.Deviation.cost < !best.Deviation.cost -. 1e-12 -> best := o
      | Some _ | None -> ()
  done;
  !best

let prop_restricted_matches_brute_force =
  QCheck.Test.make ~name:"restricted MDS reduction matches filtered brute force"
    ~count:150
    QCheck.(
      quad (int_range 4 12) (int_range 1 4) (int_range 0 100_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g =
        if seed mod 2 = 0 then Ncg_gen.Random_tree.generate rng n
        else Ncg_gen.Erdos_renyi.generate rng ~n ~p:(0.15 +. (0.5 *. Rng.float rng))
      in
      let s = Strategy.random_orientation rng g in
      let v = View.extract s (Strategy.graph s) ~k (Rng.int rng n) in
      let owned = v.View.owned in
      let allowed =
        List.filter
          (fun t -> t <> v.View.player && (List.mem t owned || Rng.bernoulli rng 0.5))
          (List.init (View.size v) Fun.id)
      in
      let max_edges = List.length owned + Rng.int rng 3 in
      let oracle = (restricted_exhaustive ~alpha ~allowed ~max_edges v).Deviation.cost in
      List.for_all
        (fun solver ->
          let o = Best_response.compute ~solver ~allowed ~max_edges ~alpha v in
          abs_float (o.Best_response.cost -. oracle) < 1e-9
          && List.for_all (fun t -> List.mem t allowed) o.Best_response.targets
          && List.length o.Best_response.targets <= max_edges)
        [ `Exact; `Budgeted 50_000 ])

let prop_cost_consistent =
  QCheck.Test.make ~name:"reported cost matches re-evaluating the strategy" ~count:100
    QCheck.(
      quad (int_range 2 15) (int_range 1 4) (int_range 0 10_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let o = Best_response.compute ~alpha v in
      Deviation.evaluate Game.Max ~alpha v o.Best_response.targets = Some o)

let prop_never_worse_than_current =
  QCheck.Test.make ~name:"best response never exceeds the current cost" ~count:100
    QCheck.(
      quad (int_range 2 15) (int_range 1 4) (int_range 0 10_000)
        (float_range 0.05 5.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let o = Best_response.compute ~alpha v in
      o.Best_response.cost
      <= (Deviation.current Game.Max ~alpha v).Deviation.cost +. 1e-9)

let () =
  Alcotest.run "best_response"
    [
      ( "cases",
        [
          Alcotest.test_case "current cost" `Quick test_current_cost;
          Alcotest.test_case "path end player" `Quick test_path_end_player;
          Alcotest.test_case "star leaf, small alpha" `Quick test_star_leaf_small_alpha;
          Alcotest.test_case "star center stays" `Quick test_star_center_stays;
          Alcotest.test_case "free dominators" `Quick test_free_dominators_used;
          Alcotest.test_case "edge removal" `Quick test_edge_removal_found;
          Alcotest.test_case "singleton view" `Quick test_singleton_view;
          Alcotest.test_case "local vs full view" `Quick test_local_vs_full_view;
          Alcotest.test_case "greedy sanity" `Quick test_greedy_never_beats_exact;
          Alcotest.test_case "improving threshold" `Quick test_improving_threshold;
        ] );
      ( "restricted",
        [
          Alcotest.test_case "budget cap" `Quick test_budget_cap;
          Alcotest.test_case "budget violation" `Quick test_budget_current_violation;
          Alcotest.test_case "allowed targets" `Quick test_allowed_targets;
          QCheck_alcotest.to_alcotest prop_restrictions_never_improve_cost;
        ] );
      ( "local_search",
        [
          Alcotest.test_case "finds edge drop" `Quick test_local_search_drop;
          Alcotest.test_case "stable at optimum" `Quick test_local_search_stays_at_optimum;
          QCheck_alcotest.to_alcotest prop_local_search_between_current_and_best;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_restricted_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_cost_consistent;
          QCheck_alcotest.to_alcotest prop_never_worse_than_current;
        ] );
    ]
