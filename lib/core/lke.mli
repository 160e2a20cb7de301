(** Local Knowledge Equilibrium (LKE) — the paper's solution concept.

    A profile σ̄ is an LKE when for every player u and every alternative
    strategy σ_u, the worst-case cost difference Δ(σ̄_u, σ_u) over all
    networks realizable given u's view is non-negative (Eq. (3)).
    Propositions 2.1 and 2.2 turn the quantification over infinitely many
    realizable networks into finite checks on the view: Δ is
    {!Deviation.delta}, and this module quantifies it over every player. *)

(** [is_lke_max ?solver ?epsilon ~alpha ~k strategy] — no player has a
    deviation with negative Δ. Exact when [solver = `Exact] (default). *)
val is_lke_max :
  ?solver:[ `Exact | `Budgeted of int | `Greedy ] ->
  ?epsilon:float ->
  ?players:int list ->
  alpha:float ->
  k:int ->
  Strategy.t ->
  bool

(** The players with an improving MaxNCG deviation, with their best
    responses. Empty iff LKE. [players] restricts the check (useful on
    vertex-transitive constructions where one orbit representative
    suffices). *)
val violations_max :
  ?solver:[ `Exact | `Budgeted of int | `Greedy ] ->
  ?epsilon:float ->
  ?players:int list ->
  alpha:float ->
  k:int ->
  Strategy.t ->
  (int * Best_response.outcome) list

(** Exact SumNCG LKE check by exhaustive search over every player's view.
    @raise Invalid_argument when some view exceeds [max_view] vertices
    (default 16 non-player vertices). *)
val is_lke_sum_exact :
  ?max_view:int ->
  ?epsilon:float ->
  ?players:int list ->
  alpha:float ->
  k:int ->
  Strategy.t ->
  bool

(** Necessary condition for a SumNCG LKE that scales to large views: no
    admissible single-edge addition, deletion or swap improves any player.
    (A profile failing this is certainly not an LKE.) *)
val is_single_move_stable_sum :
  ?epsilon:float ->
  ?players:int list ->
  alpha:float ->
  k:int ->
  Strategy.t ->
  bool
