type kind = Timeout | Interrupted | Crashed

let kind_to_string = function
  | Timeout -> "timeout"
  | Interrupted -> "interrupted"
  | Crashed -> "crashed"

type failure = {
  index : int;
  attempts : int;
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

let classify = function
  | Cancel.Timed_out _ -> Timeout
  | Cancel.Interrupted _ -> Interrupted
  | _ -> Crashed

let supervise ?(max_retries = 0) ?(backoff_ns = 0L) ?deadline_ns ?cancel
    ?(on_event = fun (_ : event) -> ()) ~scope f =
  let rec go attempt =
    on_event (Attempt_started { index = scope; attempt });
    match
      Cancel.with_control ?timeout_ns:deadline_ns ?cancel (fun () -> f ~attempt)
    with
    | v -> Ok v
    | exception e ->
        let kind = classify e in
        let exn_text = Printexc.to_string e in
        let will_retry =
          kind <> Interrupted && attempt <= max_retries
          && Cancel.shutdown_requested () = None
        in
        on_event
          (Attempt_failed { index = scope; attempt; kind; exn_text; will_retry });
        if will_retry then begin
          if backoff_ns > 0L then
            Unix.sleepf
              (Int64.to_float (Int64.mul backoff_ns (Int64.of_int attempt))
              *. 1e-9);
          go (attempt + 1)
        end
        else begin
          let fl = { index = scope; attempts = attempt; kind; exn_text; exn = e } in
          on_event (Quarantined fl);
          Error fl
        end
  in
  Inject.arm ~scope;
  Fun.protect ~finally:Inject.disarm (fun () -> go 1)

let map ?(domains = 1) ?max_retries ?backoff_ns ?deadline_ns ?on_event f n =
  if n = 0 then [||]
  else begin
    let domains = max 1 (min domains n) in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker_error : (int * exn) option Atomic.t = Atomic.make None in
    let worker w =
      (* supervise catches all task exceptions; anything escaping here is
         an executor/on_event bug — record the lowest-worker one and
         re-raise it after the join so it is never swallowed. *)
      try
        let rec loop () =
          if Cancel.shutdown_requested () = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              results.(i) <-
                Some
                  (supervise ?max_retries ?backoff_ns ?deadline_ns ?on_event
                     ~scope:i (f ~index:i));
              loop ()
            end
          end
        in
        loop ()
      with e ->
        let rec record () =
          let cur = Atomic.get worker_error in
          let better = match cur with None -> true | Some (w', _) -> w < w' in
          if better && not (Atomic.compare_and_set worker_error cur (Some (w, e)))
          then record ()
        in
        record ()
    in
    let spawned =
      Array.init (domains - 1) (fun k ->
          Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    Array.iter Domain.join spawned;
    (match Atomic.get worker_error with
    | Some (_, e) -> raise e
    | None -> ());
    Array.mapi
      (fun i -> function
        | Some r -> r
        | None ->
            let s = Option.value (Cancel.shutdown_requested ()) ~default:0 in
            Error
              {
                index = i;
                attempts = 0;
                kind = Interrupted;
                exn_text = "not started: shutdown requested";
                exn = Cancel.Interrupted s;
              })
      results
  end
