(* ncg_bounds: print the paper's theoretical PoA bound tables (the textual
   form of Figures 3 and 4) for a given number of players.

   Example:
     dune exec bin/ncg_bounds.exe -- -n 100000
     dune exec bin/ncg_bounds.exe -- -n 1000 --game sum *)

open Cmdliner

let run n game alphas ks =
  match game with
  | `Max -> print_string (Ncg.Bounds.max_table ~n ~alphas ~ks)
  | `Sum -> print_string (Ncg.Bounds.sum_table ~n ~alphas ~ks)
  | `Both ->
      print_string (Ncg.Bounds.max_table ~n ~alphas ~ks);
      print_newline ();
      print_string (Ncg.Bounds.sum_table ~n ~alphas ~ks)

let game =
  Arg.(value
       & opt (enum [ ("max", `Max); ("sum", `Sum); ("both", `Both) ]) `Both
       & info [ "game" ] ~docv:"G" ~doc:"max, sum or both.")

let cmd =
  let doc = "print the theoretical PoA bound tables (Figures 3 and 4)" in
  Cmd.v (Cmd.info "ncg_bounds" ~doc)
    Term.(
      const run $ Cli_terms.n 100_000 $ game
      $ Cli_terms.alphas [ 0.5; 1.0; 2.0; 5.0; 10.0; 100.0; 1000.0 ]
      $ Cli_terms.ks [ 1; 2; 3; 5; 10; 30; 100 ])

let () = exit (Cmd.eval cmd)
