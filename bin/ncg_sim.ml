(* ncg_sim: run one round-robin best-response dynamics and print per-round
   features as CSV.

   Example:
     dune exec bin/ncg_sim.exe -- --class tree -n 50 --alpha 2 -k 3 --seed 7
     dune exec bin/ncg_sim.exe -- --class gnp -n 100 -p 0.1 --alpha 0.5 -k 5 *)

open Cmdliner

let solver =
  let parse s =
    match (s, int_of_string_opt s) with
    | "exact", _ -> Ok `Exact
    | "greedy", _ -> Ok `Greedy
    | _, Some budget -> Ok (`Budgeted budget)
    | _ -> Error "solver must be exact, greedy, or a node budget"
  in
  let print ppf = function
    | `Exact -> Format.pp_print_string ppf "exact"
    | `Greedy -> Format.pp_print_string ppf "greedy"
    | `Budgeted b -> Format.pp_print_int ppf b
  in
  Arg.(value & opt (conv' (parse, print)) `Exact & info [ "solver" ] ~docv:"S"
         ~doc:"Best-response solver: exact, greedy, or an integer node budget.")

let run world alpha k variant solver max_rounds quiet =
  let strategy = Cli_terms.initial world in
  let config =
    {
      (Ncg.Dynamics.default_config ~alpha ~k) with
      Ncg.Dynamics.variant;
      solver;
      max_rounds;
    }
  in
  let result = Ncg.Dynamics.run config strategy in
  if not quiet then begin
    print_endline Ncg.Features.csv_header;
    List.iter
      (fun f -> print_endline (Ncg.Features.to_csv_row f))
      result.Ncg.Dynamics.features
  end;
  let outcome =
    match result.Ncg.Dynamics.outcome with
    | Ncg.Dynamics.Converged r -> Printf.sprintf "converged after %d changing round(s)" (r - 1)
    | Ncg.Dynamics.Cycle_detected r -> Printf.sprintf "best-response cycle detected at round %d" r
    | Ncg.Dynamics.Max_rounds_exceeded -> "max rounds exceeded"
  in
  Printf.printf "# outcome: %s; total moves: %d\n" outcome result.Ncg.Dynamics.total_moves;
  (match Ncg.Game.quality variant ~alpha result.Ncg.Dynamics.final with
  | Some q -> Printf.printf "# quality of final configuration: %.4f\n" q
  | None -> Printf.printf "# final configuration disconnected\n");
  let lke =
    match variant with
    | Ncg.Game.Max -> Ncg.Lke.is_lke_max ~solver ~alpha ~k result.Ncg.Dynamics.final
    | Ncg.Game.Sum -> Ncg.Lke.is_single_move_stable_sum ~alpha ~k result.Ncg.Dynamics.final
  in
  Printf.printf "# certified stable: %b\n" lke

let max_rounds = Arg.(value & opt int 200 & info [ "max-rounds" ] ~doc:"Round cap.")
let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the per-round CSV.")

let cmd =
  let doc = "simulate locality-based network creation dynamics" in
  Cmd.v
    (Cmd.info "ncg_sim" ~doc)
    Term.(
      const run $ Cli_terms.world ~n:50 $ Cli_terms.alpha $ Cli_terms.k 3
      $ Cli_terms.variant $ solver $ max_rounds $ quiet)

let () = exit (Cmd.eval cmd)
