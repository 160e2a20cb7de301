module Bfs = Ncg_graph.Bfs

type outcome = { targets : int list; usage : int; cost : float }

let price ~alpha targets usage =
  {
    targets;
    usage;
    cost = (alpha *. float_of_int (List.length targets)) +. float_of_int usage;
  }

let usage_of variant dist =
  match variant with
  | Game.Max -> Ncg_util.Arrayx.max_elt dist
  | Game.Sum -> Ncg_util.Arrayx.sum dist

let current variant ~alpha (v : View.t) =
  price ~alpha v.View.owned (usage_of variant v.View.dist)

let evaluate variant ~alpha (v : View.t) targets =
  let dist = Bfs.distances (View.with_strategy v targets) v.View.player in
  let k = v.View.k in
  let kept =
    match variant with
    | Game.Max -> fun _ d -> d <> Bfs.unreachable
    | Game.Sum -> fun d0 d -> d <> Bfs.unreachable && (d0 <> k || d <= k)
  in
  if Array.for_all2 kept v.View.dist dist then
    Some (price ~alpha targets (usage_of variant dist))
  else None

let delta variant ~alpha v targets =
  match evaluate variant ~alpha v targets with
  | None -> infinity
  | Some o -> o.cost -. (current variant ~alpha v).cost

(* The player's possible targets: every other view vertex, ascending. *)
let others (v : View.t) =
  List.filter (fun x -> x <> v.View.player) (List.init (View.size v) Fun.id)

let swaps v targets =
  let all = others v in
  List.concat_map
    (fun out ->
      let kept = List.filter (( <> ) out) targets in
      List.filter_map
        (fun inn -> if List.mem inn targets then None else Some (inn :: kept))
        all)
    targets

let local_search variant ~alpha v =
  let all = others v in
  let rec descend best =
    Ncg_fault.Cancel.checkpoint ();
    let adds =
      List.filter_map
        (fun t ->
          if List.mem t best.targets then None else Some (t :: best.targets))
        all
    in
    let drops =
      List.map (fun t -> List.filter (( <> ) t) best.targets) best.targets
    in
    let improved =
      List.fold_left
        (fun acc targets ->
          match evaluate variant ~alpha v targets with
          | Some o when o.cost < acc.cost -. 1e-12 -> o
          | Some _ | None -> acc)
        best
        (List.concat [ adds; drops; swaps v best.targets ])
    in
    if improved.cost < best.cost -. 1e-12 then descend improved else best
  in
  descend (current variant ~alpha v)

let exhaustive ?(max_view = 16) variant ~alpha v =
  let others = Array.of_list (others v) in
  let m = Array.length others in
  if m > max_view then
    invalid_arg "Deviation.exhaustive: view too large for enumeration";
  let best = ref (current variant ~alpha v) in
  for mask = 0 to (1 lsl m) - 1 do
    let targets = ref [] in
    for i = 0 to m - 1 do
      if mask land (1 lsl i) <> 0 then targets := others.(i) :: !targets
    done;
    match evaluate variant ~alpha v !targets with
    | Some o when o.cost < !best.cost -. 1e-12 -> best := o
    | Some _ | None -> ()
  done;
  !best
