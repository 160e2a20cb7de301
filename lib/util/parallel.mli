(** Deterministic fork-join parallelism over OCaml 5 domains.

    The experiment harness is embarrassingly parallel (independent seeded
    trials), so a chunked parallel map is all we need — no dependency on
    domainslib. Work is split into [domains] contiguous chunks, one
    domain per chunk; results are reassembled in order, so the output is
    identical to the sequential map regardless of scheduling.

    With [domains <= 1] (or on a single-core machine, the default) no
    domain is spawned and the plain sequential map runs. Tasks must not
    share mutable state; give each its own {!Ncg_prng.Rng} stream. *)

(** [map ?domains f xs] — [domains] defaults to
    [Domain.recommended_domain_count ()]. If [f] raises in any domain,
    every other domain is still run to completion and joined first, and
    then the exception from the lowest-numbered failing chunk is
    re-raised in the caller — so a failure never leaves stray domains
    running, and which exception surfaces is deterministic. *)
val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
