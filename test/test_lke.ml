(* Tests for the LKE solution concept, including randomized validation of
   Propositions 2.1 and 2.2 against actually-realizable networks. *)

module Graph = Ncg_graph.Graph
module Strategy = Ncg.Strategy
module View = Ncg.View
module Lke = Ncg.Lke
module Deviation = Ncg.Deviation
module Game = Ncg.Game
module Rng = Ncg_prng.Rng

let check_bool = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* --- delta functions -------------------------------------------------------- *)

let test_delta_max_values () =
  (* Triangle, 0 owns (0,1), alpha=5, k=1. Dropping: delta = -5 + (2-1). *)
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  let v = View.extract s (Strategy.graph s) ~k:1 0 in
  checkf "drop" (-4.0) (Deviation.delta Game.Max ~alpha:5.0 v []);
  checkf "keep" 0.0 (Deviation.delta Game.Max ~alpha:5.0 v v.View.owned)

let test_delta_max_disconnect_infinite () =
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2) ] in
  let v = View.extract s (Strategy.graph s) ~k:2 0 in
  check_bool "disconnect = +inf" true (Deviation.delta Game.Max ~alpha:1.0 v [] = infinity)

let test_delta_sum_frontier_infinite () =
  (* Path 0-1-2-3-4, player 2, k=2: dropping (2,3) pushes the frontier
     vertex 4 out -> infinite delta by Proposition 2.2. *)
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let v = View.extract s (Strategy.graph s) ~k:2 2 in
  check_bool "frontier push = +inf" true (Deviation.delta Game.Sum ~alpha:1.0 v [] = infinity);
  checkf "keep" 0.0 (Deviation.delta Game.Sum ~alpha:1.0 v v.View.owned)

(* --- Equilibrium checks -------------------------------------------------------- *)

let test_cycle_lemma_3_1 () =
  (* Lemma 3.1: cycle with one owned edge per player, n >= 2k+2,
     alpha >= k-1 -> LKE. *)
  let n = 12 and k = 3 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n) in
  check_bool "cycle is an LKE" true (Lke.is_lke_max ~alpha:2.5 ~k s);
  (* Far below the threshold the cycle is not stable under full knowledge. *)
  check_bool "cycle with tiny alpha, full view: not LKE" false
    (Lke.is_lke_max ~alpha:0.2 ~k:1000 s)

let test_star_lke_max () =
  let n = 6 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n) in
  check_bool "star LKE at alpha=1" true (Lke.is_lke_max ~alpha:1.0 ~k:2 s);
  (* At alpha = 0.2, a leaf buying the 4 other leaves pays 0.8 < 1 saved. *)
  check_bool "star not LKE at alpha=0.2" false (Lke.is_lke_max ~alpha:0.2 ~k:2 s)

let test_violations_reported () =
  let n = 6 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n) in
  let violations = Lke.violations_max ~alpha:0.2 ~k:2 s in
  check_bool "leaves violate" true (List.length violations = n - 1);
  check_bool "center fine" true (not (List.mem_assoc 0 violations))

let test_players_subset () =
  let n = 6 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n) in
  (* Checking only the center finds no violation even at tiny alpha. *)
  check_bool "center-only check passes" true
    (Lke.is_lke_max ~players:[ 0 ] ~alpha:0.2 ~k:2 s)

let test_star_lke_sum () =
  let n = 5 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n) in
  (* A leaf buying an edge to another leaf pays alpha to save 1. *)
  check_bool "sum LKE at alpha=1.5" true (Lke.is_lke_sum_exact ~alpha:1.5 ~k:2 s);
  check_bool "sum not LKE at alpha=0.5" false (Lke.is_lke_sum_exact ~alpha:0.5 ~k:2 s)

let test_single_move_stability () =
  let n = 5 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n) in
  check_bool "stable" true (Lke.is_single_move_stable_sum ~alpha:1.5 ~k:2 s);
  check_bool "unstable" false (Lke.is_single_move_stable_sum ~alpha:0.5 ~k:2 s)

(* --- Randomized validation of Propositions 2.1 / 2.2 ------------------------ *)

(* The real network G is itself realizable w.r.t. any of its players'
   views, so the worst-case delta computed on the view must upper-bound
   the actual cost change in G. *)

let actual_cost_change variant ~alpha s u targets' =
  let g = Strategy.graph s in
  let s' = Strategy.with_owned s u targets' in
  let g' = Strategy.graph s' in
  match (Game.player_cost variant ~alpha s g u, Game.player_cost variant ~alpha s' g' u) with
  | Some before, Some after -> Some (after -. before)
  | _, None -> None (* deviation disconnected the real network *)
  | None, _ -> assert false

let prop_proposition_2_1 =
  QCheck.Test.make ~name:"Prop 2.1: view delta bounds the real cost change (Max)"
    ~count:200
    QCheck.(
      quad (int_range 3 20) (int_range 1 4) (int_range 0 100_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let u = Rng.int rng n in
      let view = View.extract s (Strategy.graph s) ~k u in
      (* Deviations are restricted to the view's vertices (the model's
         strategy space); draw targets within the view. *)
      let hosts = Array.of_list (View.to_host view (List.init (View.size view) Fun.id)) in
      let count = Rng.int rng 3 in
      let targets_host =
        List.sort_uniq compare
          (List.filter (fun x -> x <> u)
             (List.init count (fun _ -> hosts.(Rng.int rng (Array.length hosts)))))
      in
      let targets_view = View.of_host view targets_host in
      let delta = Deviation.delta Game.Max ~alpha view targets_view in
      match actual_cost_change Game.Max ~alpha s u targets_host with
      | Some change -> change <= delta +. 1e-9
      | None -> delta = infinity || delta > 0.0)

let prop_proposition_2_2 =
  QCheck.Test.make ~name:"Prop 2.2: view delta bounds the real cost change (Sum)"
    ~count:200
    QCheck.(
      quad (int_range 3 20) (int_range 1 4) (int_range 0 100_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let u = Rng.int rng n in
      let view = View.extract s (Strategy.graph s) ~k u in
      let hosts = Array.of_list (View.to_host view (List.init (View.size view) Fun.id)) in
      let count = Rng.int rng 3 in
      let targets_host =
        List.sort_uniq compare
          (List.filter (fun x -> x <> u)
             (List.init count (fun _ -> hosts.(Rng.int rng (Array.length hosts)))))
      in
      let targets_view = View.of_host view targets_host in
      let delta = Deviation.delta Game.Sum ~alpha view targets_view in
      if delta = infinity then true
      else begin
        match actual_cost_change Game.Sum ~alpha s u targets_host with
        | Some change -> change <= delta +. 1e-9
        | None -> false
        (* a finite delta may not disconnect the real network:
           inadmissible strategies all have delta = infinity *)
      end)

let prop_converged_profiles_pass_violations =
  QCheck.Test.make ~name:"improving deviations found by BR have negative delta"
    ~count:60
    QCheck.(
      quad (int_range 3 12) (int_range 1 4) (int_range 0 100_000)
        (float_range 0.1 3.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let violations = Lke.violations_max ~alpha ~k s in
      List.for_all
        (fun (u, (o : Ncg.Best_response.outcome)) ->
          let view = View.extract s (Strategy.graph s) ~k u in
          Deviation.delta Game.Max ~alpha view o.Ncg.Best_response.targets < 0.0)
        violations)

(* --- A certificate that does not use the engine -------------------------------- *)

(* Sweep-configured dynamics on small trees and G(n,p) graphs; every
   converged profile must be an LKE by exhaustive enumeration of each
   player's deviations ({!Deviation.exhaustive}), not by
   [Best_response], the solver that produced it. *)
let test_converged_profiles_certified () =
  let spec = { Ncg.Sweep_spec.default with n = 12; p = 0.3 } in
  let converged = ref 0 in
  List.iter
    (fun (graph_class, seed) ->
      let spec = { spec with Ncg.Sweep_spec.graph_class } in
      List.iter
        (fun (alpha, k) ->
          let config = Ncg.Sweep_spec.make_config spec { Ncg.Experiment.alpha; k } in
          let result =
            Ncg.Dynamics.run config (Ncg.Sweep_spec.make_initial spec ~seed)
          in
          match result.Ncg.Dynamics.outcome with
          | Ncg.Dynamics.Converged _ ->
              incr converged;
              let s = result.Ncg.Dynamics.final in
              let g = Strategy.graph s in
              for u = 0 to Strategy.n_players s - 1 do
                let view = View.extract s g ~k u in
                let best = Deviation.exhaustive Game.Max ~alpha view in
                let current = Deviation.current Game.Max ~alpha view in
                check_bool
                  (Printf.sprintf "%s seed %d alpha %g k %d player %d" graph_class
                     seed alpha k u)
                  true
                  (best.Deviation.cost >= current.Deviation.cost -. 1e-9)
              done
          | Ncg.Dynamics.Cycle_detected _ | Ncg.Dynamics.Max_rounds_exceeded -> ())
        [ (0.5, 1); (0.5, 2); (0.5, 1000); (2.0, 1); (2.0, 2); (2.0, 1000) ])
    [ ("tree", 1); ("tree", 2); ("tree", 3); ("gnp", 1); ("gnp", 2); ("gnp", 3) ];
  check_bool "most runs converge" true (!converged >= 30)

let () =
  Alcotest.run "lke"
    [
      ( "delta",
        [
          Alcotest.test_case "delta_max values" `Quick test_delta_max_values;
          Alcotest.test_case "delta_max disconnect" `Quick test_delta_max_disconnect_infinite;
          Alcotest.test_case "delta_sum frontier" `Quick test_delta_sum_frontier_infinite;
        ] );
      ( "equilibria",
        [
          Alcotest.test_case "cycle (Lemma 3.1)" `Quick test_cycle_lemma_3_1;
          Alcotest.test_case "star (Max)" `Quick test_star_lke_max;
          Alcotest.test_case "violations" `Quick test_violations_reported;
          Alcotest.test_case "players subset" `Quick test_players_subset;
          Alcotest.test_case "star (Sum, exact)" `Quick test_star_lke_sum;
          Alcotest.test_case "single-move stability" `Quick test_single_move_stability;
        ] );
      ( "propositions",
        [
          QCheck_alcotest.to_alcotest prop_proposition_2_1;
          QCheck_alcotest.to_alcotest prop_proposition_2_2;
          QCheck_alcotest.to_alcotest prop_converged_profiles_pass_violations;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "converged sweep profiles pass exhaustive search"
            `Quick test_converged_profiles_certified;
        ] );
    ]
