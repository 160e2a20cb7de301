(** The one name registry behind {!Metrics} counters, {!Histogram}
    collectors, {!Probe} series and [Ncg_fault.Inject] fault sites.

    Each namespace maps names to dense ids [0 .. count - 1] in
    registration order; the ids index the fixed-size arrays of the
    namespace's domain-local collectors, which is why capacities are
    fixed.

    {b Init-time-only contract.} The tables are plain unsynchronized
    state: registering concurrently from two domains races, and a
    registration that runs after domains were spawned could be observed
    torn by them. So every registration happens at module initialization
    time, from the main domain, before any fan-out. This is asserted:
    {!register} raises [Invalid_argument] when called from a spawned
    domain ([Domain.is_main_domain] is false). After fan-out every
    operation here only reads. See docs/OBSERVABILITY.md. *)

type namespace =
  | Counter  (** {!Metrics} counters, 128 slots *)
  | Histogram  (** {!Histogram} latency histograms, 32 slots *)
  | Probe  (** {!Probe} round-level series, 32 slots *)
  | Fault_site  (** [Ncg_fault.Inject] fault sites, 64 slots *)

(** The namespace's fixed number of slots. *)
val capacity : namespace -> int

(** [register ns name] is the id of [name] in [ns], allocating the next
    id on first use (a repeated name keeps its id). Raises
    [Invalid_argument] for an empty name, off the main domain, or when
    [ns] is full. *)
val register : namespace -> string -> int

(** The registered name of an id. *)
val name : namespace -> int -> string

(** Registered names, in registration order. *)
val names : namespace -> string list

val find : namespace -> string -> int option

(** Number of registered names. *)
val count : namespace -> int

(** [collect key col ?on_exit f] installs [col] as the calling domain's
    collector under [key] for the extent of [f], then reinstalls the
    previous one (also when [f] raises) and passes it, if any, to
    [on_exit] — {!Metrics} and {!Histogram} fold the inner counts into
    it there; {!Probe} passes nothing, so an inner collector shadows the
    outer one. *)
val collect :
  'c option Domain.DLS.key -> 'c -> ?on_exit:('c -> unit) -> (unit -> 'a) -> 'a

(** [merge ns ~combine a b] merges two name-keyed snapshots, [combine]-ing
    the values of names present in both. Names registered in [ns] come
    first, in registration order, then unknown names in first-seen order
    ([a]'s before [b]'s), so merged snapshots keep a stable shape. *)
val merge :
  namespace ->
  combine:('v -> 'v -> 'v) ->
  (string * 'v) list ->
  (string * 'v) list ->
  (string * 'v) list

(** [expand ns ~missing decoded] is the decode side of an encoder that
    drops empty entries: every registered name in registration order,
    with its decoded value or [missing ()], then the unknown names of
    [decoded] in input order. *)
val expand :
  namespace -> missing:(unit -> 'v) -> (string * 'v) list -> (string * 'v) list
