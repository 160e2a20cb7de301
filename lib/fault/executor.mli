(** Supervised execution: the one place a task attempt is run.

    {!supervise} runs a single task under the fault and cancellation
    discipline every sweep cell shares: arm fault injection with the
    task's scope, run each attempt under {!Cancel.with_control} (the
    per-attempt deadline and an optional external cancellation flag),
    classify a failure, then retry it or {e quarantine} it as an
    [Error failure]. {!map} is a work queue over {!supervise}: unlike
    {!Ncg_util.Parallel}'s static contiguous chunking it hands task
    indices out from a shared atomic queue, so a slow or retried task
    never stalls a whole chunk, and one task's failure never aborts the
    others.

    Cancellation is cooperative: an attempt that overruns its deadline
    or whose cancellation flag is set raises at its next
    {!Cancel.checkpoint}, so a task that never checkpoints cannot be cut
    off.

    Retries use a deterministic linear backoff ([backoff_ns * attempt])
    — a schedule, not jitter — and are never made for
    {!Cancel.Interrupted} or once {!Cancel.request_shutdown} was called.
    Fault injection composes: a task is armed with [Inject.arm ~scope]
    before its first attempt and disarmed after its last, with hit
    counters persisting across retries (see {!Inject}).

    {!map} writes results into a per-index array, so the output order —
    and, given a deterministic task function and fault plan, the full
    outcome vector including failures — is independent of [domains] and
    scheduling. *)

type kind =
  | Timeout  (** {!Cancel.Timed_out}: deadline, cancel flag or step budget *)
  | Interrupted  (** {!Cancel.Interrupted}: process shutdown *)
  | Crashed  (** any other exception, including {!Inject.Fault} *)

val kind_to_string : kind -> string

(** A quarantined task. *)
type failure = {
  index : int;  (** the task's scope *)
  attempts : int;  (** attempts made; 0 = never started (shutdown) *)
  kind : kind;
  exn_text : string;
  exn : exn;
}

type event =
  | Attempt_started of { index : int; attempt : int }
  | Attempt_failed of {
      index : int;
      attempt : int;
      kind : kind;
      exn_text : string;
      will_retry : bool;
    }
  | Quarantined of failure

(** [supervise ~scope f] runs [f ~attempt] until an attempt returns or
    the retry budget is spent; attempt numbers start at 1. [scope] arms
    fault injection and is the [index] of every event and failure.

    - [max_retries] (default 0): extra attempts after the first
      failure.
    - [backoff_ns] (default 0): sleep [backoff_ns * attempt] before
      retry number [attempt + 1].
    - [deadline_ns]: per-attempt budget, enforced at checkpoints.
    - [cancel]: a flag that, once set, fails the running attempt at its
      next checkpoint with [Cancel.Timed_out "cancelled"] (the sweep
      service wires a lease's revocation flag here).
    - [on_event]: called as attempts start, fail, and quarantine, on
      the calling domain. *)
val supervise :
  ?max_retries:int ->
  ?backoff_ns:int64 ->
  ?deadline_ns:int64 ->
  ?cancel:bool Atomic.t ->
  ?on_event:(event -> unit) ->
  scope:int ->
  (attempt:int -> 'a) ->
  ('a, failure) result

(** [map ~domains f n] runs [supervise ~scope:index (f ~index)] for
    every [index < n] over [domains] worker domains (the calling domain
    is worker 0, as in {!Ncg_util.Parallel}) and returns the outcome
    vector in index order. The optional arguments are passed to
    {!supervise}; [on_event] is then called from worker domains, so it
    must be thread-safe ({!Ncg_obs.Events} is).

    After {!Cancel.request_shutdown}, no new tasks start; tasks never
    started are reported as [Error] with [attempts = 0] and
    [kind = Interrupted]. *)
val map :
  ?domains:int ->
  ?max_retries:int ->
  ?backoff_ns:int64 ->
  ?deadline_ns:int64 ->
  ?on_event:(event -> unit) ->
  (index:int -> attempt:int -> 'a) ->
  int ->
  ('a, failure) result array
