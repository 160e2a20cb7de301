module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs

type variant = Max | Sum

let variant_to_string = function Max -> "max" | Sum -> "sum"

let usage variant g u =
  match variant with
  | Max -> Bfs.eccentricity g u
  | Sum -> Bfs.sum_distances g u

let cost_of_usage ~alpha strategy u use =
  (alpha *. float_of_int (Strategy.bought_count strategy u)) +. float_of_int use

let player_cost variant ~alpha strategy g u =
  Option.map (cost_of_usage ~alpha strategy u) (usage variant g u)

let player_costs variant ~alpha strategy g =
  let n = Strategy.n_players strategy in
  let costs = Array.make n 0.0 in
  let ok = ref true in
  let u = ref 0 in
  while !ok && !u < n do
    (match player_cost variant ~alpha strategy g !u with
    | Some c -> costs.(!u) <- c
    | None -> ok := false);
    incr u
  done;
  if !ok then Some costs else None

let sum_costs costs = Array.fold_left ( +. ) 0.0 costs

let cost_ratio costs =
  let mx = Array.fold_left max neg_infinity costs in
  let mn = Array.fold_left min infinity costs in
  if mn <= 0.0 then infinity else mx /. mn

let social_cost variant ~alpha strategy =
  let g = Strategy.graph strategy in
  Option.map sum_costs (player_costs variant ~alpha strategy g)

let social_cost_and_unfairness ~alpha strategy ~usage =
  let costs = Array.mapi (cost_of_usage ~alpha strategy) usage in
  (sum_costs costs, cost_ratio costs)

let star_cost variant ~alpha ~n =
  if n = 1 then 0.0
  else begin
    let nf = float_of_int n in
    let building = alpha *. (nf -. 1.0) in
    match variant with
    | Max ->
        (* Center eccentricity 1, each of the n-1 leaves eccentricity 2
           (or 1 when n = 2). *)
        if n = 2 then building +. 2.0
        else building +. 1.0 +. (2.0 *. (nf -. 1.0))
    | Sum ->
        (* Center status n-1; each leaf 1 + 2(n-2). *)
        building +. (nf -. 1.0) +. ((nf -. 1.0) *. ((2.0 *. nf) -. 3.0))
  end

let clique_cost variant ~alpha ~n =
  if n = 1 then 0.0
  else begin
    let nf = float_of_int n in
    let building = alpha *. nf *. (nf -. 1.0) /. 2.0 in
    match variant with
    | Max -> building +. nf
    | Sum -> building +. (nf *. (nf -. 1.0))
  end

let social_optimum variant ~alpha ~n =
  if n < 1 then invalid_arg "Game.social_optimum: need n >= 1";
  min (star_cost variant ~alpha ~n) (clique_cost variant ~alpha ~n)

let quality variant ~alpha strategy =
  let n = Strategy.n_players strategy in
  Option.map
    (fun cost -> cost /. social_optimum variant ~alpha ~n)
    (social_cost variant ~alpha strategy)

let unfairness variant ~alpha strategy g =
  Option.map cost_ratio (player_costs variant ~alpha strategy g)
