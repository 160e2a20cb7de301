(* A swap keeps the edge count, so the building cost cancels: price at
   alpha = 0, where Prop. 2.2's frontier rule still applies under Sum. *)
let improving_swap variant (v : View.t) =
  List.find_opt
    (fun targets -> Deviation.delta variant ~alpha:0.0 v targets < 0.0)
    (Deviation.swaps v v.View.owned)

let each_player_stable strategy ~k has_improvement =
  let g = Strategy.graph strategy in
  let n = Strategy.n_players strategy in
  let rec go u =
    u >= n
    ||
    let view = View.extract strategy g ~k u in
    has_improvement view = None && go (u + 1)
  in
  go 0

let is_swap_stable_max ~k strategy = each_player_stable strategy ~k (improving_swap Game.Max)
let is_swap_stable_sum ~k strategy = each_player_stable strategy ~k (improving_swap Game.Sum)

let max_swap_violations ~k strategy =
  let g = Strategy.graph strategy in
  let n = Strategy.n_players strategy in
  List.filter_map
    (fun u ->
      let view = View.extract strategy g ~k u in
      Option.map
        (fun targets -> (u, View.to_host view targets))
        (improving_swap Game.Max view))
    (List.init n Fun.id)
