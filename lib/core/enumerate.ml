module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs

type analysis = {
  n : int;
  alpha : float;
  k : int;
  profiles : int;
  nash : Strategy.t list;
  lke : Strategy.t list;
  optimum : float;
  worst_nash : float option;
  worst_lke : float option;
}

(* Strategy of player [u] encoded as a bitmask over the other players in
   increasing order. *)
let targets_of_mask ~n u mask =
  let others = List.filter (fun x -> x <> u) (List.init n Fun.id) in
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) others

let profile_of_masks ~n masks =
  let buys = ref [] in
  Array.iteri
    (fun u mask -> List.iter (fun v -> buys := (u, v) :: !buys) (targets_of_mask ~n u mask))
    masks;
  Strategy.of_buys ~n !buys

(* Player u's full-knowledge cost under an alternative mask, [infinity]
   when she cannot reach everyone. *)
let deviation_cost variant ~alpha ~n masks u mask' =
  let saved = masks.(u) in
  masks.(u) <- mask';
  let s = profile_of_masks ~n masks in
  masks.(u) <- saved;
  match Game.player_cost variant ~alpha s (Strategy.graph s) u with
  | Some c -> c
  | None -> infinity

let is_nash variant ~alpha ~n masks current_costs =
  let m = 1 lsl (n - 1) in
  let rec player u =
    u >= n
    ||
    let rec deviation mask' =
      mask' >= m
      || (mask' = masks.(u)
         || deviation_cost variant ~alpha ~n masks u mask'
            >= current_costs.(u) -. 1e-9)
         && deviation (mask' + 1)
    in
    deviation 0 && player (u + 1)
  in
  player 0

(* Every player's exhaustive best response on her view (Prop. 2.1/2.2)
   is no cheaper than her current strategy. *)
let is_lke variant ~alpha ~k ~n strategy g =
  List.for_all
    (fun u ->
      let view = View.extract strategy g ~k u in
      (Deviation.exhaustive variant ~alpha view).Deviation.cost
      >= (Deviation.current variant ~alpha view).Deviation.cost -. 1e-9)
    (List.init n Fun.id)

let analyze ?(guard = 4) variant ~alpha ~k ~n =
  if n < 2 then invalid_arg "Enumerate.analyze: need n >= 2";
  if n > guard then invalid_arg "Enumerate.analyze: n exceeds the guard";
  let m = 1 lsl (n - 1) in
  let masks = Array.make n 0 in
  let profiles = ref 0 in
  let nash = ref [] and lke = ref [] in
  let optimum = ref infinity in
  let worst_nash = ref neg_infinity and worst_lke = ref neg_infinity in
  let rec walk u =
    if u = n then begin
      incr profiles;
      let s = profile_of_masks ~n masks in
      let g = Strategy.graph s in
      if Bfs.is_connected g then begin
        match Game.player_costs variant ~alpha s g with
        | None -> ()
        | Some costs ->
            let social = Array.fold_left ( +. ) 0.0 costs in
            if social < !optimum then optimum := social;
            if is_nash variant ~alpha ~n masks costs then begin
              nash := s :: !nash;
              if social > !worst_nash then worst_nash := social
            end;
            if is_lke variant ~alpha ~k ~n s g then begin
              lke := s :: !lke;
              if social > !worst_lke then worst_lke := social
            end
      end
    end
    else
      for mask = 0 to m - 1 do
        masks.(u) <- mask;
        walk (u + 1)
      done
  in
  walk 0;
  {
    n;
    alpha;
    k;
    profiles = !profiles;
    nash = List.rev !nash;
    lke = List.rev !lke;
    optimum = !optimum;
    worst_nash = (if !worst_nash > neg_infinity then Some !worst_nash else None);
    worst_lke = (if !worst_lke > neg_infinity then Some !worst_lke else None);
  }

let poa_lke a = Option.map (fun w -> w /. a.optimum) a.worst_lke
let poa_nash a = Option.map (fun w -> w /. a.optimum) a.worst_nash

let nash_subset_of_lke a =
  List.for_all (fun ne -> List.exists (Strategy.equal ne) a.lke) a.nash
