(** Minimum dominating set with forced and forbidden vertices, on top of
    {!Set_cover}.

    This is exactly the optimization problem the paper reduces MaxNCG best
    response to (Section 5.3): dominate the (h−1)-th power of the view
    minus the player, where the vertices that already bought an edge
    towards the player dominate for free ("constrained to be included"
    in the paper's phrasing — equivalently their domination is free since
    the player keeps those edges either way). *)

type problem = {
  graph : Ncg_graph.Graph.t;
  radius : int;
      (** a vertex dominates all vertices within this distance; 1 = the
          classical dominating set *)
  free_dominators : int list;
      (** vertices whose closed balls are covered at no cost *)
  forbidden : int list;  (** vertices that may not be chosen as dominators *)
}

(** {1 Amortised radius loop}

    The best-response oracle solves the same graph at radii 0, 1, 2, ... —
    a {!context} computes the distance rows once and grows each covering
    ball by cursor as the radius advances, instead of re-running n BFS per
    radius. Radii that cannot yield a cover are answered without a
    {!Set_cover} solve, each counted in [dominating_set.shortcuts]:

    - radius 0 in closed form: the only cover of the vertices outside the
      free dominators is that set itself, in ascending order;
    - a radius whose free balls cover everything: [Some []];
    - a radius where the counting bound ⌈|U| / max_v |B_r(v) ∩ U|⌉ over
      the uncovered set U and the non-forbidden v exceeds [max_size] (or
      no such ball meets U): [None].

    Every answer equals {!Set_cover.solve} (or {!Set_cover.greedy}) on the
    corresponding instance. *)

type context

(** Growable distance-row buffers reused across contexts. At most one
    context built from a given workspace may be live at a time — creating
    the next one invalidates the previous. Not domain-safe. *)
type workspace

val create_workspace : unit -> workspace

(** [context ?max_radius ~graph ~free_dominators ~forbidden ()] prepares
    the radius loop. Nothing is searched until the first radius ≥ 1:
    then n BFS runs, each stopped at depth [max_radius] (default
    unbounded), fill the distance rows; [?scratch] is borrowed for that
    build only. [?ws] lends the row buffers; the context borrows them
    until the next [context] call on the same workspace. *)
val context :
  ?scratch:Ncg_graph.Bfs.scratch ->
  ?ws:workspace ->
  ?max_radius:int ->
  graph:Ncg_graph.Graph.t ->
  free_dominators:int list ->
  forbidden:int list ->
  unit ->
  context

(** [solve_at ?ws ?max_size ?node_budget ctx ~radius] is {!solve} of the
    corresponding problem, reusing the context's distance rows and ball
    sets. Radii must be visited in non-decreasing order (repeats allowed):
    balls only grow. [?ws] threads a {!Set_cover.workspace} through the
    underlying branch and bound.
    @raise Invalid_argument when [radius] is negative, below a radius
    already visited on [ctx], or above the context's [max_radius]. *)
val solve_at :
  ?ws:Set_cover.workspace ->
  ?max_size:int ->
  ?node_budget:int ->
  context ->
  radius:int ->
  int list option

(** Greedy variant of {!solve_at}: [None] also when the greedy cover has
    more than [max_size] vertices. Same radius rules. *)
val greedy_at :
  ?ws:Set_cover.workspace -> ?max_size:int -> context -> radius:int -> int list option

(** {1 One-shot problems} *)

(** [solve ?max_size ?node_budget p] is a minimum list of chosen
    dominators (excluding the free ones), or [None] if infeasible / above
    [max_size]. [node_budget] bounds the branch-and-bound search as in
    {!Set_cover.solve}. *)
val solve : ?max_size:int -> ?node_budget:int -> problem -> int list option

(** Greedy variant with the same interface. *)
val greedy : problem -> int list option

(** [dominates p chosen] checks that the free dominators plus [chosen]
    cover every vertex of the graph. *)
val dominates : problem -> int list -> bool
