module Graph = Ncg_graph.Graph
module Metrics = Ncg_graph.Metrics

type summary = {
  views : int array;
  diameter : int;
  social_cost : float;
  unfairness : float;
}

type t = {
  round : int;
  changes : int;
  diameter : int;
  social_cost : float;
  max_degree : int;
  avg_degree : float;
  min_bought : int;
  max_bought : int;
  avg_bought : float;
  min_view : int;
  max_view : int;
  avg_view : float;
}

let summarize variant ~alpha ~k strategy g =
  let p = Metrics.distance_profile g ~radius:k in
  let social_cost, unfairness =
    if p.Metrics.connected then
      Game.social_cost_and_unfairness ~alpha strategy
        ~usage:
          (match variant with
          | Game.Max -> p.Metrics.eccentricities
          | Game.Sum -> p.Metrics.statuses)
    else (nan, nan)
  in
  {
    views = p.Metrics.balls;
    diameter =
      (if p.Metrics.connected && Graph.order g > 0 then
         Array.fold_left max 0 p.Metrics.eccentricities
       else -1);
    social_cost;
    unfairness;
  }

let collect variant ~alpha ~k ~round ~changes strategy g =
  let n = Graph.order g in
  let bought = Array.init n (Strategy.bought_count strategy) in
  let summary : summary = summarize variant ~alpha ~k strategy g in
  let views = summary.views in
  let fsum a = float_of_int (Ncg_util.Arrayx.sum a) in
  {
    round;
    changes;
    diameter = summary.diameter;
    social_cost = summary.social_cost;
    max_degree = Metrics.max_degree g;
    avg_degree = Metrics.avg_degree g;
    min_bought = Ncg_util.Arrayx.min_elt bought;
    max_bought = Ncg_util.Arrayx.max_elt bought;
    avg_bought = fsum bought /. float_of_int n;
    min_view = Ncg_util.Arrayx.min_elt views;
    max_view = Ncg_util.Arrayx.max_elt views;
    avg_view = fsum views /. float_of_int n;
  }

let csv_header =
  "round,changes,diameter,social_cost,max_degree,avg_degree,min_bought,max_bought,avg_bought,min_view,max_view,avg_view"

let to_csv_row t =
  Printf.sprintf "%d,%d,%d,%.4f,%d,%.4f,%d,%d,%.4f,%d,%d,%.4f" t.round t.changes
    t.diameter t.social_cost t.max_degree t.avg_degree t.min_bought t.max_bought
    t.avg_bought t.min_view t.max_view t.avg_view
