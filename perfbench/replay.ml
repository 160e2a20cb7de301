(* The traced replay: Dynamics.run's round loop re-driven from outside
   the program through its public calls, with one timed span per call.

   Spans are folded into per-layer nanosecond sums in memory as they
   close; the benchmark only ever reads the totals. The Dominating_set context is
   re-timed separately on every view (Subgraph.induced + context, as
   Best_response.compute builds it) and that time is kept out of the
   replay wall, so the layer rows of a replay sum to its wall. *)

module Strategy = Ncg.Strategy
module View = Ncg.View
module Best_response = Ncg.Best_response
module Workspace = Ncg.Workspace
module Dynamics = Ncg.Dynamics
module Graph = Ncg_graph.Graph
module Subgraph = Ncg_graph.Subgraph
module Dominating_set = Ncg_solver.Dominating_set
module Histogram = Ncg_obs.Histogram

let now () = Int64.to_int (Ncg_obs.Clock.now_ns ())

type layers = {
  mutable extract_ns : int;  (** View.extract *)
  mutable br_ns : int;  (** Best_response.improving, solver and context included *)
  mutable set_cover_ns : int;  (** the program's set_cover histogram during the replay *)
  mutable context_ns : int;  (** Subgraph.induced + Dominating_set.context, re-timed *)
  mutable with_owned_ns : int;  (** Strategy.with_owned *)
  mutable graph_ns : int;  (** Strategy.graph *)
  mutable key_ns : int;  (** Strategy.to_key *)
  mutable wall_ns : int;  (** replay wall, re-timed context excluded *)
}

let empty () =
  {
    extract_ns = 0;
    br_ns = 0;
    set_cover_ns = 0;
    context_ns = 0;
    with_owned_ns = 0;
    graph_ns = 0;
    key_ns = 0;
    wall_ns = 0;
  }

(* Everything inside the replay wall that no span covers: the loop, the
   cycle table, View.to_host, the step budget. *)
let dynamics_self_ns l =
  l.wall_ns - l.extract_ns - l.br_ns - l.with_owned_ns - l.graph_ns - l.key_ns

(* The part of Best_response.improving that is neither a set-cover solve
   nor the distance context: the radius loop's own bookkeeping. *)
let br_self_ns l = l.br_ns - l.set_cover_ns - l.context_ns

(* Rows of the share table; they sum to [wall_ns] exactly. *)
let rows l =
  [
    ("view.extract", l.extract_ns);
    ("ds.context", l.context_ns);
    ("set_cover.solve", l.set_cover_ns);
    ("br.self", br_self_ns l);
    ("strategy.with_owned", l.with_owned_ns);
    ("strategy.graph", l.graph_ns);
    ("strategy.key", l.key_ns);
    ("dynamics.self", dynamics_self_ns l);
  ]

let add_into acc l =
  acc.extract_ns <- acc.extract_ns + l.extract_ns;
  acc.br_ns <- acc.br_ns + l.br_ns;
  acc.set_cover_ns <- acc.set_cover_ns + l.set_cover_ns;
  acc.context_ns <- acc.context_ns + l.context_ns;
  acc.with_owned_ns <- acc.with_owned_ns + l.with_owned_ns;
  acc.graph_ns <- acc.graph_ns + l.graph_ns;
  acc.key_ns <- acc.key_ns + l.key_ns;
  acc.wall_ns <- acc.wall_ns + l.wall_ns

let time_context (ws : Workspace.t) (view : View.t) =
  let nv = Graph.order view.View.graph in
  if nv <= 1 then 0
  else begin
    let t0 = now () in
    let others =
      List.filter (fun x -> x <> view.View.player) (List.init nv Fun.id)
    in
    let h0, mapping = Subgraph.induced view.View.graph others in
    let free_dominators =
      List.map (fun x -> mapping.Subgraph.to_sub.(x)) view.View.in_buyers
    in
    ignore
      (Dominating_set.context ~scratch:ws.Workspace.bfs ~ws:ws.Workspace.dom
         ~graph:h0 ~free_dominators ~forbidden:[] ());
    now () - t0
  end

type result = {
  final : Strategy.t;
  moves : int;
  rounds : int;
  outcome : Dynamics.outcome;
}

(* Only the configuration the sweeps and the daemon run is replayed:
   MaxNCG, exact-or-budgeted best responses, round-robin, no features. *)
let check_config (c : Dynamics.config) =
  match c with
  | {
   Dynamics.variant = Ncg.Game.Max;
   response = `Best;
   order = `Round_robin;
   collect_features = false;
   _;
  } ->
      ()
  | _ -> invalid_arg "Replay.run: only Max/best/round-robin without features"

let replay_loop (l : layers) (config : Dynamics.config) s0 =
  check_config config;
  let start = now () in
  let excluded = ref 0 in
  let timed field f =
    let t0 = now () in
    let r = f () in
    field (now () - t0);
    r
  in
  let n = Strategy.n_players s0 in
  let ws = Workspace.create ~capacity:n () in
  let key s =
    timed (fun d -> l.key_ns <- l.key_ns + d) (fun () -> Strategy.to_key s)
  in
  let graph s =
    timed (fun d -> l.graph_ns <- l.graph_ns + d) (fun () -> Strategy.graph s)
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace seen (key s0) ();
  let strategy = ref s0 in
  let g = ref (graph s0) in
  let outcome = ref None in
  let round = ref 0 in
  let moves = ref 0 in
  while !outcome = None && !round < config.Dynamics.max_rounds do
    incr round;
    let changes = ref 0 in
    for u = 0 to n - 1 do
      let view, improvement =
        Ncg_fault.Cancel.with_step_budget config.Dynamics.move_budget
          (fun () ->
            let view =
              timed
                (fun d -> l.extract_ns <- l.extract_ns + d)
                (fun () ->
                  View.extract ~scratch:ws.Workspace.bfs !strategy !g
                    ~k:config.Dynamics.k u)
            in
            ( view,
              timed
                (fun d -> l.br_ns <- l.br_ns + d)
                (fun () ->
                  Best_response.improving ~ws ~solver:config.Dynamics.solver
                    ~epsilon:config.Dynamics.epsilon
                    ~alpha:config.Dynamics.alpha view) ))
      in
      let c = time_context ws view in
      l.context_ns <- l.context_ns + c;
      (* the re-timing and its two clock reads stay out of the wall *)
      excluded := !excluded + c;
      match improvement with
      | None -> ()
      | Some (o : Best_response.outcome) ->
          let s' =
            timed
              (fun d -> l.with_owned_ns <- l.with_owned_ns + d)
              (fun () ->
                Strategy.with_owned !strategy u
                  (View.to_host view o.Best_response.targets))
          in
          strategy := s';
          g := graph s';
          incr changes;
          incr moves
    done;
    if !changes = 0 then outcome := Some (Dynamics.Converged !round)
    else begin
      let k = key !strategy in
      if Hashtbl.mem seen k then outcome := Some (Dynamics.Cycle_detected !round)
      else Hashtbl.replace seen k ()
    end
  done;
  l.wall_ns <- l.wall_ns + (now () - start - !excluded);
  {
    final = !strategy;
    moves = !moves;
    rounds = !round;
    outcome =
      (match !outcome with Some o -> o | None -> Dynamics.Max_rounds_exceeded);
  }

let hist_sum_ns snapshot h =
  match List.assoc_opt (Histogram.name h) snapshot with
  | Some hist -> Int64.to_int (Histogram.sum_ns hist)
  | None -> 0

(* [run config s0] replays one trajectory under the program's own
   histogram and counter collectors (the same ones a sweep cell installs),
   so the set-cover share comes from the program's histogram and the
   counters can be compared with Dynamics.run's. *)
let run config s0 =
  let l = empty () in
  let (r, counters), hists =
    Histogram.collect (fun () ->
        Ncg_obs.Metrics.collect (fun () -> replay_loop l config s0))
  in
  l.set_cover_ns <- hist_sum_ns hists Histogram.set_cover;
  (r, l, counters)

(* Dynamics.run under the same collectors, timed from outside: the
   untraced side of the overhead ratio. *)
let run_dynamics config s0 =
  let t0 = now () in
  let (r, counters), _ =
    Histogram.collect (fun () ->
        Ncg_obs.Metrics.collect (fun () -> Dynamics.run config s0))
  in
  (r, now () - t0, counters)
