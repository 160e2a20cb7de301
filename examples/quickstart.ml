(* Quickstart: build a tiny locality-based network creation game, inspect a
   player's view, compute her exact best response, and run the round-robin
   dynamics to a Local Knowledge Equilibrium.

   Run with:  dune exec examples/quickstart.exe *)

module Strategy = Ncg.Strategy
module View = Ncg.View
module Best_response = Ncg.Best_response
module Dynamics = Ncg.Dynamics
module Game = Ncg.Game
module Lke = Ncg.Lke

let () =
  (* A path 0-1-2-3-4-5 where player i buys the edge towards i+1. *)
  let n = 6 in
  let strategy = Strategy.of_buys ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let g = Strategy.graph strategy in
  let alpha = 1.0 and k = 2 in

  Printf.printf "Initial network: path on %d players, alpha = %g, k = %d\n" n alpha k;
  Printf.printf "%s\n" (Ncg_graph.Pretty.to_adjacency_string g);

  (* Player 0 only knows her 2-neighbourhood. *)
  let view = View.extract strategy g ~k 0 in
  Printf.printf "Player 0 sees %d of %d vertices.\n" (View.size view) n;
  Printf.printf "Her current (view-evaluated) cost: %g\n"
    (Ncg.Deviation.current Game.Max ~alpha view).Ncg.Deviation.cost;

  (* Exact best response on the view (Proposition 2.1 + the Section 5.3
     dominating-set reduction). *)
  let br = Best_response.compute ~alpha view in
  Printf.printf "Her best response buys %d edge(s) for cost %g\n"
    (List.length br.Best_response.targets)
    br.Best_response.cost;

  (* Round-robin best-response dynamics until an LKE. *)
  let config = Dynamics.default_config ~alpha ~k in
  let result = Dynamics.run config strategy in
  (match result.Dynamics.outcome with
  | Dynamics.Converged r -> Printf.printf "Converged after %d round(s).\n" (r - 1)
  | Dynamics.Cycle_detected r -> Printf.printf "Best-response cycle at round %d!\n" r
  | Dynamics.Max_rounds_exceeded -> Printf.printf "Did not converge.\n");

  let final = result.Dynamics.final in
  Printf.printf "Final network:\n%s" (Ncg_graph.Pretty.to_adjacency_string (Strategy.graph final));
  Printf.printf "Certified LKE: %b\n" (Lke.is_lke_max ~alpha ~k final);
  match Game.quality Game.Max ~alpha final with
  | Some q -> Printf.printf "Quality of equilibrium (social cost / OPT): %.3f\n" q
  | None -> Printf.printf "Disconnected?!\n"
