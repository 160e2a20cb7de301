(** Network features collected after every round of dynamics — the raw
    series behind Tables I–II and Figures 5–10. *)

(** The end-of-round / end-of-trial statistics that need all-pairs
    distances, from one {!Ncg_graph.Metrics.distance_profile} pass. *)
type summary = {
  views : int array;  (** |β_{G,k}(u)| for every u *)
  diameter : int;  (** -1 if disconnected or empty *)
  social_cost : float;  (** {!Game.social_cost}; [nan] if disconnected *)
  unfairness : float;  (** {!Game.unfairness}; [nan] if disconnected *)
}

type t = {
  round : int;
  changes : int;  (** strategy changes performed during the round *)
  diameter : int;  (** -1 if disconnected *)
  social_cost : float;  (** [nan] if disconnected *)
  max_degree : int;
  avg_degree : float;
  min_bought : int;
  max_bought : int;
  avg_bought : float;
  min_view : int;  (** smallest |β_{G,k}(u)| over players *)
  max_view : int;
  avg_view : float;
}

(** [collect variant ~alpha ~k ~round ~changes strategy g] — [g] must be
    [Strategy.graph strategy]. *)
val collect :
  Game.variant ->
  alpha:float ->
  k:int ->
  round:int ->
  changes:int ->
  Strategy.t ->
  Ncg_graph.Graph.t ->
  t

(** [summarize variant ~alpha ~k strategy g] — [g] must be
    [Strategy.graph strategy]. *)
val summarize :
  Game.variant -> alpha:float -> k:int -> Strategy.t -> Ncg_graph.Graph.t -> summary

(** Header and row for CSV output of a feature record. *)
val csv_header : string

val to_csv_row : t -> string
