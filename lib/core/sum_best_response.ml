module Bfs = Ncg_graph.Bfs

type outcome = Deviation.outcome = {
  targets : int list;
  usage : int;
  cost : float;
}

let branch_and_bound ?(max_candidates = 34) ~alpha (v : View.t) =
  let nv = View.size v in
  let candidates =
    List.filter (fun x -> x <> v.View.player) (List.init nv Fun.id)
  in
  if List.length candidates > max_candidates then
    invalid_arg "Sum_best_response.branch_and_bound: view too large";
  (* Farthest-first ordering: buying an edge to a distant vertex changes
     the distance profile the most, so deciding those first tightens the
     bound early. *)
  let candidates =
    Array.of_list
      (List.sort (fun a b -> compare v.View.dist.(b) v.View.dist.(a)) candidates)
  in
  let ncand = Array.length candidates in
  (* Incumbent: the better of the current strategy and local search. *)
  let best = ref (Deviation.local_search Game.Sum ~alpha v) in
  let distances targets =
    Bfs.distances (View.with_strategy v targets) v.View.player
  in
  (* Lower bound for completions of [included] with candidates idx..ncand-1
     undecided. Two rigorous ingredients:
     - D_opt: the distance sum when *every* undecided edge exists (more
       edges can only shorten distances); pay alpha only for [included].
     - per-candidate penalties: a completion either buys undecided c
       (pays alpha) or not — and then c's own distance is at least its
       distance with every other undecided edge present, an increase of
       delta_c over the optimistic value. The delta_c live on distinct
       vertices, so they add up. Hence LB += sum over undecided of
       min(alpha, delta_c).
     Also detects subtrees where even the optimistic completion leaves
     some view vertex unreachable (then every completion does). *)
  let completion_bound included idx =
    let optimistic = ref included in
    for j = idx to ncand - 1 do
      optimistic := candidates.(j) :: !optimistic
    done;
    let dist_all = distances !optimistic in
    if Array.mem Bfs.unreachable dist_all then None
    else begin
      let penalty = ref 0.0 in
      if alpha > 0.0 then
        for j = idx to ncand - 1 do
          let c = candidates.(j) in
          let dist_wo = distances (List.filter (( <> ) c) !optimistic) in
          let delta_c =
            if dist_wo.(c) = Bfs.unreachable then infinity
            else float_of_int (dist_wo.(c) - dist_all.(c))
          in
          penalty := !penalty +. Float.min alpha delta_c
        done;
      Some
        ((alpha *. float_of_int (List.length included))
        +. float_of_int (Ncg_util.Arrayx.sum dist_all)
        +. !penalty)
    end
  in
  let rec go idx included =
    (* One poll per node, so a move budget or a cell deadline can cut off
       an oversized search. *)
    Ncg_fault.Cancel.checkpoint ();
    Ncg_obs.Metrics.(incr sum_bb_nodes);
    if idx = ncand then begin
      match Deviation.evaluate Game.Sum ~alpha v included with
      | Some o when o.cost < !best.cost -. 1e-12 -> best := o
      | Some _ | None -> ()
    end
    else begin
      match completion_bound included idx with
      | None -> () (* even with every undecided edge some vertex is cut *)
      | Some lb when lb >= !best.cost -. 1e-12 ->
          Ncg_obs.Metrics.(incr sum_bb_cutoffs)
      | Some _ ->
          go (idx + 1) (candidates.(idx) :: included);
          go (idx + 1) included
    end
  in
  go 0 [];
  !best

let compute ~alpha ~mode v =
  Ncg_obs.Histogram.(time sum_best_response) @@ fun () ->
  Ncg_obs.Metrics.(incr sum_best_response_calls);
  match mode with
  | `Exact max_view -> Deviation.exhaustive ~max_view Game.Sum ~alpha v
  | `Branch_and_bound max_candidates -> branch_and_bound ~max_candidates ~alpha v
  | `Local_search -> Deviation.local_search Game.Sum ~alpha v

let improving ?(epsilon = 1e-9) ~alpha ~mode v =
  let best = compute ~alpha ~mode v in
  if best.cost < (Deviation.current Game.Sum ~alpha v).cost -. epsilon then
    Some best
  else None
