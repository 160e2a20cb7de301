(** Whole-graph metrics: diameter, radius, degree statistics.

    All-pairs quantities run one BFS per vertex — O(n·(n+m)) — which is the
    right trade-off at the paper's experiment sizes (n ≤ a few thousand). *)

(** [diameter g] is the largest eccentricity, or [None] if [g] is
    disconnected or empty. *)
val diameter : Graph.t -> int option

(** [radius g] is the smallest eccentricity, or [None] if disconnected. *)
val radius : Graph.t -> int option

(** All eccentricities; [None] if disconnected. *)
val eccentricities : Graph.t -> int array option

(** [max_degree g] is 0 for an empty graph. *)
val max_degree : Graph.t -> int

(** [avg_degree g] is [2m/n]; 0 for an empty graph. *)
val avg_degree : Graph.t -> float

(** Sum over all ordered pairs of distances; [None] if disconnected.
    (The Wiener index is half of this.) *)
val total_distance : Graph.t -> int option

(** Per-vertex distance statistics from one BFS per source. For each
    source [u]: [balls.(u)] is the number of vertices at distance
    ≤ [radius] ([u] included), and [eccentricities.(u)] / [statuses.(u)]
    are the largest / summed distance to the vertices [u] reaches — the
    true eccentricity and status when [connected]. *)
type distance_profile = {
  balls : int array;
  eccentricities : int array;
  statuses : int array;
  connected : bool;
}

(** [distance_profile g ~radius] runs one unbounded BFS per vertex on one
    scratch, O(n·(n+m)) time and O(n) space — the one all-pairs pass
    behind the per-round features and the per-trial statistics. *)
val distance_profile : Graph.t -> radius:int -> distance_profile

(** [distance_matrix g] is row [u] = BFS distances from [u]. O(n(n+m))
    time, O(n²) space. *)
val distance_matrix : Graph.t -> int array array

(** [density g] is m / (n choose 2); 0 for graphs with < 2 vertices. *)
val density : Graph.t -> float

(** [degree_histogram g] — entry [d] counts vertices of degree [d];
    length [max_degree g + 1] (length 1 for an empty graph). *)
val degree_histogram : Graph.t -> int array

(** [local_clustering g u] is the fraction of pairs of neighbours of [u]
    that are themselves adjacent; 0 when [degree g u < 2]. *)
val local_clustering : Graph.t -> int -> float

(** Average of {!local_clustering} over all vertices (Watts–Strogatz);
    0 for the empty graph. *)
val avg_clustering : Graph.t -> float
