let default_players strategy = List.init (Strategy.n_players strategy) Fun.id

let violations_max ?solver ?epsilon ?players ~alpha ~k strategy =
  let g = Strategy.graph strategy in
  let players = match players with Some p -> p | None -> default_players strategy in
  List.filter_map
    (fun u ->
      let view = View.extract strategy g ~k u in
      Option.map
        (fun outcome -> (u, outcome))
        (Best_response.improving ?solver ?epsilon ~alpha view))
    players

let is_lke_max ?solver ?epsilon ?players ~alpha ~k strategy =
  violations_max ?solver ?epsilon ?players ~alpha ~k strategy = []

(* No player's [engine] finds a deviation cheaper than her current
   strategy by more than [epsilon]. *)
let no_cheaper_sum engine ~epsilon ?players ~alpha ~k strategy =
  let g = Strategy.graph strategy in
  let players = match players with Some p -> p | None -> default_players strategy in
  List.for_all
    (fun u ->
      let view = View.extract strategy g ~k u in
      (engine ~alpha view).Deviation.cost
      >= (Deviation.current Game.Sum ~alpha view).Deviation.cost -. epsilon)
    players

let is_lke_sum_exact ?max_view ?(epsilon = 1e-9) ?players ~alpha ~k strategy =
  no_cheaper_sum
    (Deviation.exhaustive ?max_view Game.Sum)
    ~epsilon ?players ~alpha ~k strategy

let is_single_move_stable_sum ?(epsilon = 1e-9) ?players ~alpha ~k strategy =
  no_cheaper_sum (Deviation.local_search Game.Sum) ~epsilon ?players ~alpha ~k
    strategy
