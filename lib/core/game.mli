(** The two games: cost functions, social cost, social optimum.

    MaxNCG (Eq. (2) of the paper): a player pays α per bought edge plus her
    eccentricity. SumNCG (Eq. (1)): α per bought edge plus the sum of her
    distances to all other players. Disconnected usage is treated as
    infinite: cost functions return [None]. *)

type variant = Max | Sum

val variant_to_string : variant -> string

(** [usage variant g u] is the eccentricity (Max) or the status/sum of
    distances (Sum) of [u] in [g]; [None] if [u] cannot reach everyone. *)
val usage : variant -> Ncg_graph.Graph.t -> int -> int option

(** [player_cost variant ~alpha strategy g u] = α·|σ_u| + usage. [g] must
    be [Strategy.graph strategy] (passed in to avoid rebuilding). *)
val player_cost :
  variant -> alpha:float -> Strategy.t -> Ncg_graph.Graph.t -> int -> float option

(** All player costs at once (one BFS per player). *)
val player_costs :
  variant -> alpha:float -> Strategy.t -> Ncg_graph.Graph.t -> float array option

(** [social_cost variant ~alpha strategy] = Σ_u player_cost u. *)
val social_cost : variant -> alpha:float -> Strategy.t -> float option

(** [social_cost_and_unfairness ~alpha strategy ~usage] is the pair
    ({!social_cost}, {!unfairness}) of a connected profile whose players'
    usage terms ({!usage}: eccentricities under Max, statuses under Sum)
    are already known — the same floats, folded in the same order, without
    a BFS. *)
val social_cost_and_unfairness :
  alpha:float -> Strategy.t -> usage:int array -> float * float

(** The reference social optimum used for the quality-of-equilibrium and
    PoA measurements: the better of the spanning star (optimal for α ≥ 1
    in Max, α ≥ 2 in Sum — the paper's regime of interest) and the clique
    (optimal for small α). Closed forms, O(1).
    @raise Invalid_argument if [n < 1]. *)
val social_optimum : variant -> alpha:float -> n:int -> float

(** Quality of a configuration: social cost / {!social_optimum}. [None] on
    disconnection. This is the paper's "quality of equilibrium" when the
    strategy is an LKE. *)
val quality : variant -> alpha:float -> Strategy.t -> float option

(** [unfairness variant ~alpha strategy g] is max player cost / min player
    cost (Figure 9's "unfairness ratio"). [None] on disconnection. *)
val unfairness :
  variant -> alpha:float -> Strategy.t -> Ncg_graph.Graph.t -> float option
