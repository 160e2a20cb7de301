(** Pricing one deviation on a player's view.

    Propositions 2.1 and 2.2 reduce every LKE and best-response question
    to the cost of a deviation σ′ on the view H: replace the player's
    bought edges by edges towards σ′ (H′ = {!View.with_strategy}) and
    measure her usage in H′.

    - MaxNCG (Prop. 2.1): the worst realizable network is the view
      itself, so the price is α·|σ′| + ecc_{H′}(u).
    - SumNCG (Prop. 2.2): a deviation that pushes a frontier vertex
      (distance exactly k) beyond distance k is never improving —
      arbitrarily many invisible vertices could hang off it; every other
      deviation is priced α·|σ′| + Σ_v d_{H′}(u, v).

    A deviation that disconnects some view vertex from the player has
    infinite cost under both games. Every engine starts from {!current};
    the SumNCG engines ({!Sum_best_response}), the LKE checks ({!Lke},
    {!Enumerate}) and the swap predicates ({!Swap}) price each candidate
    with {!evaluate}. *)

type outcome = {
  targets : int list;  (** σ′ in view coordinates *)
  usage : int;  (** ecc_{H′}(u) under Max, Σ_v d_{H′}(u, v) under Sum *)
  cost : float;  (** α·|targets| + usage *)
}

(** The player's current strategy priced on her view. Always finite (the
    view is a ball, hence connected); reads the view's distances, no
    search. *)
val current : Game.variant -> alpha:float -> View.t -> outcome

(** [evaluate variant ~alpha view targets] prices the deviation to
    [targets] (view coordinates): [None] when H′ disconnects some view
    vertex from the player or, under Sum, pushes a frontier vertex beyond
    distance k. One BFS on H′. *)
val evaluate :
  Game.variant -> alpha:float -> View.t -> int list -> outcome option

(** [delta variant ~alpha view targets] is Δ(σ_u, σ′_u) of Eq. (3): the
    price of [targets] minus the price of the current strategy, and
    [infinity] where {!evaluate} is [None]. *)
val delta : Game.variant -> alpha:float -> View.t -> int list -> float

(** [swaps view targets] — every strategy obtained from [targets] by
    replacing exactly one target with a view vertex outside [targets]
    (the player excluded). *)
val swaps : View.t -> int list -> int list list

(** Steepest descent from the current strategy: each step moves to the
    cheapest strictly better single-edge addition, deletion or swap
    ({!swaps}); a local optimum, not necessarily a best response. Polls
    {!Ncg_fault.Cancel.checkpoint} once per descent step. *)
val local_search : Game.variant -> alpha:float -> View.t -> outcome

(** [exhaustive ?max_view variant ~alpha view] tries every subset of the
    view's non-player vertices and returns the cheapest (the current
    strategy on ties): an exact best response that uses no solver, the
    reference the engines are tested against.
    @raise Invalid_argument if the view has more than [max_view]
    (default 16) non-player vertices — the search would not finish. *)
val exhaustive : ?max_view:int -> Game.variant -> alpha:float -> View.t -> outcome
