(* End-to-end validation of the paper's constructions: the lower-bound
   graphs really are Local Knowledge Equilibria and exhibit the claimed
   social-cost gaps. *)

module Graph = Ncg_graph.Graph
module Metrics = Ncg_graph.Metrics
module Strategy = Ncg.Strategy
module Lke = Ncg.Lke
module Game = Ncg.Game
module Torus_grid = Ncg_gen.Torus_grid

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Lemma 3.1: the cycle ------------------------------------------------- *)

let test_lemma_3_1_full () =
  (* n >= 2k+2, alpha >= k-1: equilibrium with social cost Theta(alpha n + n^2)
     against optimum Theta(alpha n + n). *)
  let n = 16 and k = 3 in
  let alpha = 2.0 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n) in
  check_bool "cycle LKE" true (Lke.is_lke_max ~alpha ~k s);
  match Game.social_cost Game.Max ~alpha s with
  | Some cost ->
      let opt = Game.social_optimum Game.Max ~alpha ~n in
      (* Cost = alpha*n + n*(n/2) = 32 + 128; opt = 2*15 + 1 + 30 = 61. *)
      check_bool "PoA gap" true (cost /. opt > 2.0)
  | None -> Alcotest.fail "cycle is connected"

let test_lemma_3_1_various_k () =
  (* The same profile stays an LKE whenever alpha >= k-1 and n >= 2k+2. *)
  List.iter
    (fun (n, k, alpha) ->
      let s = Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n) in
      check_bool
        (Printf.sprintf "cycle n=%d k=%d alpha=%.1f" n k alpha)
        true
        (Lke.is_lke_max ~alpha ~k s))
    [ (10, 2, 1.0); (12, 4, 3.0); (20, 5, 10.0) ]

(* --- Lemma 3.2 via PG(2,q) -------------------------------------------------- *)

let test_lemma_3_2_projective_plane () =
  (* PG(2,3) incidence graph: girth 6 = 2k+2 for k=2, every view is a tree
     of height 2. With each point buying its incident edges, the profile
     is an LKE for alpha >= 1 (buying can save at most k-1 = 1 while any
     additional edge costs alpha >= 1; removing disconnects the view). *)
  let q = 3 in
  let g = Ncg_gen.Projective_plane.incidence q in
  let np = Ncg_gen.Projective_plane.plane_size q in
  let buys =
    List.map (fun (u, v) -> if u < np then (u, v) else (v, u)) (Graph.edges g)
  in
  let s = Strategy.of_buys ~n:(Graph.order g) buys in
  check_bool "PG(2,3) profile is an LKE (k=2, alpha=1.5)" true
    (Lke.is_lke_max ~alpha:1.5 ~k:2 s);
  (* The equilibrium is denser than a star: PoA density gap. *)
  check_bool "denser than tree" true (Graph.size g > Graph.order g)

(* --- Theorem 3.12: the stretched torus, MaxNCG ------------------------------- *)

let test_theorem_3_12_equilibrium () =
  (* alpha = 2 => ell = 2; k = 2; d = 2; delta_1 = 2; free delta_2. *)
  let alpha = 2.0 and k = 2 in
  let t = Torus_grid.closed ~d:2 ~ell:2 ~deltas:[| 2; 5 |] in
  let n = Graph.order t.Torus_grid.graph in
  (* n = N (2^{d-1}(l-1)+1) with N = 2 d1 d2 = 20, multiplier 3. *)
  check_int "n = 6 * d1 * d2" 60 n;
  let s = Strategy.of_buys ~n t.Torus_grid.buys in
  check_bool "graph matches" true (Graph.equal (Strategy.graph s) t.Torus_grid.graph);
  check_bool "torus is an LKE for MaxNCG" true (Lke.is_lke_max ~alpha ~k s);
  (* Diameter lower bound from Corollary 3.4 gives the PoA gap. *)
  (match Metrics.diameter t.Torus_grid.graph with
  | Some diam -> check_bool "large diameter" true (diam >= 2 * 5)
  | None -> Alcotest.fail "connected");
  match Game.quality Game.Max ~alpha s with
  | Some quality -> check_bool "quality far above 1" true (quality > 2.0)
  | None -> Alcotest.fail "connected"

let test_theorem_3_12_via_params () =
  match Torus_grid.params_for_theorem_3_12 ~alpha:2.0 ~k:4 ~n_budget:2500 with
  | Some (d, ell, deltas) ->
      let t = Torus_grid.closed ~d ~ell ~deltas in
      let n = Graph.order t.Torus_grid.graph in
      let s = Strategy.of_buys ~n t.Torus_grid.buys in
      check_bool "k=4 torus is an LKE" true (Lke.is_lke_max ~alpha:2.0 ~k:4 s)
  | None -> Alcotest.fail "params should fit in 2500 vertices"

let test_torus_not_equilibrium_when_k_large () =
  (* With full knowledge the torus is not stable: players see the whole
     ring and can shortcut it. *)
  let t = Torus_grid.closed ~d:2 ~ell:2 ~deltas:[| 2; 5 |] in
  let n = Graph.order t.Torus_grid.graph in
  let s = Strategy.of_buys ~n t.Torus_grid.buys in
  check_bool "not an LKE under full knowledge" false
    (Lke.is_lke_max ~alpha:2.0 ~k:1000 s)

(* --- Theorem 4.2: the torus, SumNCG ---------------------------------------- *)

let test_theorem_4_2_equilibrium () =
  (* d=2, ell=2, k=2, alpha >= 4k^3 = 32, delta_1 = ceil(k/2)+1 = 2. Views
     at k=2 have <= 13 vertices, so the exact exhaustive check is
     feasible. Checking every player of one orbit representative set
     (intersection vertex + both interior path positions) suffices by
     vertex-transitivity, but we check everyone for good measure on a
     small instance. *)
  let alpha = 33.0 and k = 2 in
  let t = Torus_grid.closed ~d:2 ~ell:2 ~deltas:[| 2; 5 |] in
  let n = Graph.order t.Torus_grid.graph in
  let s = Strategy.of_buys ~n t.Torus_grid.buys in
  check_bool "torus is a Sum-LKE" true (Lke.is_lke_sum_exact ~alpha ~k s)

let test_theorem_4_2_quality_gap () =
  let alpha = 33.0 in
  let t = Torus_grid.closed ~d:2 ~ell:2 ~deltas:[| 2; 5 |] in
  let n = Graph.order t.Torus_grid.graph in
  let s = Strategy.of_buys ~n t.Torus_grid.buys in
  match Game.quality Game.Sum ~alpha s with
  | Some quality -> check_bool "sum quality above 1" true (quality > 1.2)
  | None -> Alcotest.fail "connected"

(* --- Corollary 3.14 / Theorem 4.4 empirically ---------------------------------- *)

let test_corollary_3_14_empirical () =
  (* With alpha <= k-1 and k above the Corollary 3.14 threshold, every
     equilibrium the dynamics reaches has full-knowledge players.
     For n = 25, alpha = 2, the threshold min(n, (n a^2)^(1/3), ...) is
     (100)^(1/3) ≈ 4.6; pick k = 6. *)
  let n = 25 and alpha = 2.0 and k = 6 in
  List.iter
    (fun seed ->
      let s = Ncg.Experiment.initial_tree ~seed ~n in
      let cfg = Ncg.Dynamics.default_config ~alpha ~k in
      let r = Ncg.Dynamics.run cfg s in
      match r.Ncg.Dynamics.outcome with
      | Ncg.Dynamics.Converged _ ->
          let final = r.Ncg.Dynamics.final in
          let views =
            (Ncg.Features.summarize Game.Max ~alpha ~k final (Strategy.graph final))
              .Ncg.Features.views
          in
          check_int "every player sees everything"
            n (Ncg_util.Arrayx.min_elt views)
      | _ -> Alcotest.fail "should converge")
    [ 3; 17; 40 ]

let test_theorem_4_4_empirical () =
  (* SumNCG with k > 1 + 2 sqrt(alpha): equilibria reached by the dynamics
     have full views. alpha = 0.5 -> threshold ~2.41; k = 4 qualifies. *)
  let n = 14 and alpha = 0.5 and k = 4 in
  List.iter
    (fun seed ->
      let s = Ncg.Experiment.initial_tree ~seed ~n in
      let cfg =
        {
          (Ncg.Dynamics.default_config ~alpha ~k) with
          Ncg.Dynamics.variant = Game.Sum;
          sum_mode = `Branch_and_bound 34;
          max_rounds = 60;
        }
      in
      let r = Ncg.Dynamics.run cfg s in
      match r.Ncg.Dynamics.outcome with
      | Ncg.Dynamics.Converged _ ->
          let final = r.Ncg.Dynamics.final in
          let views =
            (Ncg.Features.summarize Game.Sum ~alpha ~k final (Strategy.graph final))
              .Ncg.Features.views
          in
          check_int "full views at Sum equilibrium" n
            (Ncg_util.Arrayx.min_elt views)
      | _ -> Alcotest.fail "should converge")
    [ 5; 23 ]

(* --- Dynamics reach the theory ------------------------------------------------ *)

let test_dynamics_agree_with_theory () =
  (* Starting from the cycle at (alpha, k) where Lemma 3.1 says it's
     stable, the dynamics must terminate immediately without changes. *)
  let n = 12 and k = 3 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n) in
  let cfg = Ncg.Dynamics.default_config ~alpha:2.5 ~k in
  let r = Ncg.Dynamics.run cfg s in
  (match r.Ncg.Dynamics.outcome with
  | Ncg.Dynamics.Converged 1 -> ()
  | _ -> Alcotest.fail "cycle should already be stable");
  check_bool "unchanged" true (Strategy.equal s r.Ncg.Dynamics.final)

let () =
  Alcotest.run "integration"
    [
      ( "lemma_3_1",
        [
          Alcotest.test_case "cycle equilibrium and gap" `Quick test_lemma_3_1_full;
          Alcotest.test_case "various (n,k,alpha)" `Quick test_lemma_3_1_various_k;
        ] );
      ( "lemma_3_2",
        [ Alcotest.test_case "PG(2,3)" `Quick test_lemma_3_2_projective_plane ] );
      ( "theorem_3_12",
        [
          Alcotest.test_case "k=2 torus LKE + gap" `Quick test_theorem_3_12_equilibrium;
          Alcotest.test_case "k=4 torus via params" `Slow test_theorem_3_12_via_params;
          Alcotest.test_case "unstable at full knowledge" `Quick
            test_torus_not_equilibrium_when_k_large;
        ] );
      ( "theorem_4_2",
        [
          Alcotest.test_case "sum LKE" `Slow test_theorem_4_2_equilibrium;
          Alcotest.test_case "sum quality gap" `Quick test_theorem_4_2_quality_gap;
        ] );
      ( "full_knowledge_thresholds",
        [
          Alcotest.test_case "Corollary 3.14 empirically" `Quick
            test_corollary_3_14_empirical;
          Alcotest.test_case "Theorem 4.4 empirically" `Slow test_theorem_4_4_empirical;
        ] );
      ( "dynamics",
        [ Alcotest.test_case "cycle stays put" `Quick test_dynamics_agree_with_theory ] );
    ]
