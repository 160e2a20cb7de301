(** Best responses for SumNCG under local knowledge.

    Every candidate is priced by {!Deviation.evaluate} [Game.Sum]. By
    Proposition 2.2 a deviation that pushes a frontier vertex (distance
    exactly k) beyond distance k is never improving — arbitrarily many
    invisible vertices could hang off that vertex — so it is skipped.
    A deviation that disconnects some view vertex from the player has
    infinite cost and is skipped as well. For every other deviation the
    worst-case network is the view itself, so a best response minimizes
    α·|σ′| + Σ_v d_{H′}(u, v) over those deviations.

    Computing this exactly is NP-hard (the paper proves it for k ≥ 2 and
    1 < α < 2), and unlike MaxNCG there is no dominating-set shortcut.
    The engines are {!Deviation.exhaustive} for tiny views (the SumNCG
    certification of the torus construction: Theorem 4.2 uses k = 2,
    where views are tiny), the branch and bound below for views of up to
    about 35 vertices, and {!Deviation.local_search} for larger views. *)

type outcome = Deviation.outcome = {
  targets : int list;  (** σ′ in view coordinates *)
  usage : int;  (** Σ_v d_{H′}(u,v) *)
  cost : float;
}

(** [branch_and_bound ?max_candidates ~alpha view] is an exact best
    response, like {!Deviation.exhaustive}, but searched by branch and
    bound over the candidate targets (ordered farthest-first) instead of
    plain enumeration: at each node the completion cost is lower-bounded
    by α·|included so far| + the distance sum when *every* undecided
    vertex is bought (more edges can only shorten distances), and
    subtrees above the incumbent — warm-started from
    {!Deviation.local_search} — are pruned. This typically handles views
    of 25–35 vertices where the 2^m enumeration is hopeless. Polls
    {!Ncg_fault.Cancel.checkpoint} once per node.
    @raise Invalid_argument when the view has more than [max_candidates]
    (default 34) non-player vertices. *)
val branch_and_bound : ?max_candidates:int -> alpha:float -> View.t -> outcome

(** [compute ~alpha ~mode view] runs the chosen engine: [`Exact m] is
    {!Deviation.exhaustive} with [max_view = m], [`Branch_and_bound m]
    is {!branch_and_bound} with [max_candidates = m], [`Local_search] is
    {!Deviation.local_search}. The result is never worse than the
    current strategy. *)
val compute :
  alpha:float ->
  mode:[ `Exact of int | `Branch_and_bound of int | `Local_search ] ->
  View.t ->
  outcome

(** [improving ?epsilon ~alpha ~mode view] — [Some] iff {!compute}
    strictly improves on the current strategy by more than [epsilon]
    (default 1e-9). *)
val improving :
  ?epsilon:float ->
  alpha:float ->
  mode:[ `Exact of int | `Branch_and_bound of int | `Local_search ] ->
  View.t ->
  outcome option
