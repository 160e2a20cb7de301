(* What can a player rule out? This walk-through makes the paper's
   worst-case reasoning (Eq. (3), Propositions 2.1/2.2) tangible: a player
   evaluates a deviation against every network consistent with her view,
   and we build some of those networks explicitly.

   Run with:  dune exec examples/realizable_worlds.exe *)

module Graph = Ncg_graph.Graph
module Strategy = Ncg.Strategy
module View = Ncg.View
module Realizable = Ncg.Realizable
module Deviation = Ncg.Deviation
module Game = Ncg.Game
module Rng = Ncg_prng.Rng

let () =
  (* A path 0-1-2-3-4-5-6; player 3 sits in the middle with k = 2. *)
  let n = 7 in
  let s = Strategy.of_buys ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let g = Strategy.graph s in
  let u = 3 and k = 2 in
  let view = View.extract s g ~k u in
  Printf.printf "Player %d, k = %d: sees %d of %d vertices.\n" u k (View.size view) n;
  Printf.printf "Frontier (distance exactly k): %s\n\n"
    (String.concat ", "
       (List.map string_of_int (View.to_host view (View.frontier view))));

  (* Three realizable worlds: the truth could be any of them. *)
  let rng = Rng.create 7 in
  List.iter
    (fun extra ->
      let r = Realizable.extend rng view ~extra in
      Printf.printf "A realizable world with %2d invisible vertices: %d vertices, %d edges (certified: %b)\n"
        extra
        (Graph.order r.Realizable.graph)
        (Graph.size r.Realizable.graph)
        (Realizable.is_realizable view r.Realizable.graph))
    [ 0; 3; 12 ];
  print_newline ();

  (* The Max game: dropping the owned edge towards 4 cuts the visible
     frontier vertex 5 off in every world -> infinitely bad. *)
  let delta_drop = Deviation.delta Game.Max ~alpha:1.0 view [] in
  Printf.printf "MaxNCG worst-case delta of dropping all edges: %s\n"
    (if delta_drop = infinity then "infinite (frontier cut in every world)"
     else Printf.sprintf "%g" delta_drop);

  (* A benign deviation: additionally buying the frontier vertex. *)
  let frontier_target = List.hd (View.frontier view) in
  let deviation = frontier_target :: view.View.owned in
  Printf.printf "MaxNCG worst-case delta of also buying a frontier vertex: %+.1f\n"
    (Deviation.delta Game.Max ~alpha:1.0 view deviation);

  (* The Sum game punishes frontier-touching deviations much harder:
     swapping the owned edge (3,4) for (3,5) pushes the frontier vertex
     outwards; a long invisible chain behind it makes the real damage as
     large as the adversary wants. *)
  let five = List.hd (View.of_host view [ 5 ]) in
  let swap = [ five ] in
  Printf.printf "\nSumNCG: is the swap (3,4) -> (3,5) admissible? %b\n"
    (Deviation.evaluate Game.Sum ~alpha:1.0 view swap <> None);
  Printf.printf "SumNCG worst-case delta of that swap: %s\n"
    (let d = Deviation.delta Game.Sum ~alpha:1.0 view swap in
     if d = infinity then "infinite" else Printf.sprintf "%+.1f" d);
  let anchor = frontier_target in
  List.iter
    (fun len ->
      let r = Realizable.attach_chain view ~anchor ~length:len in
      let dist = Ncg_graph.Bfs.distances r.Realizable.graph view.View.player in
      let sum = Array.fold_left ( + ) 0 dist in
      Printf.printf
        "  world with a %2d-vertex chain behind the frontier: player's distance sum = %d\n"
        len sum)
    [ 2; 8; 32 ];
  print_newline ();
  print_endline
    "Reading: the player cannot distinguish these worlds, so she must plan";
  print_endline
    "for the worst one — that is the Local Knowledge Equilibrium's logic."
