(** Breadth-first search primitives.

    Distances are returned as [int array]s indexed by vertex, with
    {!unreachable} marking vertices in other components.

    The allocating helpers ({!distances}, {!ball}, ...) are convenient and
    deterministic but cost two length-n arrays per call; hot paths should
    create one {!scratch} per logical run (e.g. per dynamics trajectory) and
    call {!run} repeatedly. See docs/PERFORMANCE.md for the ownership
    rules. *)

(** Distance value for vertices not reached by the search. *)
val unreachable : int

(** {1 Scratch-buffer searches} *)

(** Reusable search buffers. A scratch grows on demand and may be reused
    across graphs of different orders; it must not be shared between domains
    or used re-entrantly (each {!run} invalidates the previous results). *)
type scratch

(** [create_scratch ~capacity ()] pre-sizes the buffers for graphs of order
    ≤ [capacity] (default 0: grow on first use). *)
val create_scratch : ?capacity:int -> unit -> scratch

(** [run s g src ~radius] searches from [src], stopping at depth [radius]
    (pass [max_int] for unbounded), and returns the number of vertices
    reached. Afterwards [dist_array s] holds distances for all of
    [0 .. order g - 1] ([unreachable] outside the ball) and the first
    [visited] entries of [visit_order s] list the reached vertices in BFS
    order (so non-decreasing distance, [src] first).

    The cost is O(visited + arcs scanned + the previous run's visited
    count), independent of [order g]: instead of clearing the whole
    distance buffer, a run resets only the entries the previous run on
    the same scratch reached (see {!dist_array}).
    @raise Invalid_argument if [src] is outside [0, order g). *)
val run : scratch -> Graph.t -> int -> radius:int -> int

(** The scratch's distance buffer. Owned by the scratch: valid only until
    the next [run], and callers must not mutate it. After a run, every
    entry outside that run's visited set — the first [visited] entries of
    {!visit_order}, including every index ≥ the searched graph's order —
    is [unreachable]. The next run relies on this invariant to reset only
    those visited entries, so a caller that wrote into the buffer (or
    into {!visit_order}) would corrupt every later search on the
    scratch. *)
val dist_array : scratch -> int array

(** The scratch's BFS-order buffer; same ownership rules as
    {!dist_array}. Only the first [run]-returned count of entries are
    meaningful. *)
val visit_order : scratch -> int array

(** {1 Allocating helpers} *)

(** [distances g u] is the array of hop distances from [u];
    [unreachable] where [u] cannot reach. O(n + m). *)
val distances : Graph.t -> int -> int array

(** [distances_within g u ~radius] stops expanding at depth [radius]:
    vertices farther than [radius] get [unreachable]. *)
val distances_within : Graph.t -> int -> radius:int -> int array

(** [ball g u ~radius] is the sorted list of vertices at distance
    ≤ [radius] from [u] ([u] included). *)
val ball : Graph.t -> int -> radius:int -> int list

(** [eccentricity g u] is [Some] of the largest distance from [u], or
    [None] if some vertex is unreachable (infinite eccentricity). *)
val eccentricity : Graph.t -> int -> int option

(** [sum_distances g u] is [Some] of the sum of distances from [u] to every
    other vertex, or [None] if the graph is disconnected from [u]. *)
val sum_distances : Graph.t -> int -> int option

(** [is_connected g] for [order g = 0] is [true]. *)
val is_connected : Graph.t -> bool

(** [shortest_path g u v] is a path [u; ...; v] of minimum length, or
    [None] if unreachable. *)
val shortest_path : Graph.t -> int -> int -> int list option
