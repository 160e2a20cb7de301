(* ncg_trace: record and audit dynamics traces.

   record : run a dynamics, save the initial profile and the move trace
   verify : reload both, replay the trace, check the replay invariant and
            certify the replayed profile as an LKE

   Example:
     dune exec bin/ncg_trace.exe -- record --class tree -n 30 --alpha 2 \
         -k 3 --prefix /tmp/run1
     dune exec bin/ncg_trace.exe -- verify --prefix /tmp/run1 --alpha 2 -k 3 *)

open Cmdliner

let write_file = Ncg_obs.Atomic_file.write

let read_file path = In_channel.with_open_bin path In_channel.input_all

let initial_path prefix = prefix ^ ".initial"
let trace_path prefix = prefix ^ ".trace"

let record world alpha k prefix =
  let strategy = Cli_terms.initial world in
  let config =
    { (Ncg.Dynamics.default_config ~alpha ~k) with Ncg.Dynamics.solver = `Budgeted 50_000 }
  in
  let result = Ncg.Dynamics.run config strategy in
  write_file (initial_path prefix) (Ncg.Strategy.to_string strategy);
  write_file (trace_path prefix) (Ncg.Trace.to_string result.Ncg.Dynamics.trace);
  Printf.printf "recorded %d move(s) to %s{.initial,.trace}\n"
    (Ncg.Trace.length result.Ncg.Dynamics.trace)
    prefix;
  match result.Ncg.Dynamics.outcome with
  | Ncg.Dynamics.Converged r -> Printf.printf "converged after %d changing round(s)\n" (r - 1)
  | Ncg.Dynamics.Cycle_detected r -> Printf.printf "cycle detected at round %d\n" r
  | Ncg.Dynamics.Max_rounds_exceeded -> print_endline "round budget exhausted"

let verify prefix alpha k =
  let initial = Ncg.Strategy.of_string (read_file (initial_path prefix)) in
  let trace = Ncg.Trace.of_string (read_file (trace_path prefix)) in
  let final = Ncg.Trace.replay initial trace in
  Printf.printf "replayed %d move(s) cleanly\n" (Ncg.Trace.length trace);
  let lke = Ncg.Lke.is_lke_max ~solver:(`Budgeted 50_000) ~alpha ~k final in
  Printf.printf "replayed profile is an LKE at (alpha=%g, k=%d): %b\n" alpha k lke;
  (match Ncg.Game.quality Ncg.Game.Max ~alpha final with
  | Some q -> Printf.printf "quality: %.4f\n" q
  | None -> print_endline "replayed profile disconnected?!");
  if not lke then exit 2

let prefix =
  Arg.(required & opt (some string) None & info [ "prefix" ] ~docv:"PATH"
         ~doc:"File prefix for the .initial and .trace files.")

let record_cmd =
  Cmd.v (Cmd.info "record" ~doc:"run a dynamics and save initial profile + trace")
    Term.(
      const record $ Cli_terms.world ~n:30 $ Cli_terms.alpha $ Cli_terms.k 3
      $ prefix)

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"replay a saved trace and certify the result")
    Term.(const verify $ prefix $ Cli_terms.alpha $ Cli_terms.k 3)

let cmd =
  Cmd.group (Cmd.info "ncg_trace" ~doc:"record and audit dynamics traces")
    [ record_cmd; verify_cmd ]

let () = exit (Cmd.eval cmd)
