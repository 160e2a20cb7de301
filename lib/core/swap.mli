(** Swap deviations and swap stability.

    The swap game (Alon et al. 2013; Mihalák–Schlegel's asymmetric swap
    equilibrium, both cited by the paper) restricts a player to replacing
    one endpoint of one owned edge, keeping her edge count — so the α
    term cancels and stability is about distances only. Every LKE is
    swap-stable (swaps are a subset of the LKE deviation space), which
    makes swap stability a cheap necessary condition: the dynamics
    engines use full best responses, but a quick swap check filters
    non-equilibria in O(n · deg · view) before invoking the solver. The
    candidates are {!Deviation.swaps}, priced by {!Deviation.delta}. *)

(** [is_swap_stable_max ~k strategy] — no player can strictly decrease
    her view-eccentricity by a single swap. Necessary for a MaxNCG LKE at
    the same k (for any α, since the building cost is unchanged). *)
val is_swap_stable_max : k:int -> Strategy.t -> bool

(** SumNCG version: no admissible swap strictly decreases the
    view-distance sum. Necessary for a SumNCG LKE. *)
val is_swap_stable_sum : k:int -> Strategy.t -> bool

(** Players with an improving swap (Max), with one improving deviation
    each. Empty iff swap stable. *)
val max_swap_violations : k:int -> Strategy.t -> (int * int list) list
