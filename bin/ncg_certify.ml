(* ncg_certify: certify that one of the paper's lower-bound constructions
   is a Local Knowledge Equilibrium, using the exact best-response engines.

   Examples:
     dune exec bin/ncg_certify.exe -- cycle -n 24 -k 3 --alpha 2.5
     dune exec bin/ncg_certify.exe -- pg -q 3 --alpha 1.5
     dune exec bin/ncg_certify.exe -- torus-max --alpha 2 -k 2 --delta 8
     dune exec bin/ncg_certify.exe -- torus-sum -k 2 --alpha 33 --delta 6 *)

open Cmdliner

module Graph = Ncg_graph.Graph

let report ~name ~n ~alpha ~k ~lke ~quality ~theory =
  Printf.printf "construction : %s\n" name;
  Printf.printf "players      : %d\n" n;
  Printf.printf "alpha, k     : %g, %d\n" alpha k;
  Printf.printf "certified LKE: %b\n" lke;
  (match quality with
  | Some q -> Printf.printf "quality      : %.3f (social cost / optimum)\n" q
  | None -> Printf.printf "quality      : disconnected?!\n");
  (match theory with
  | Some (label, v) -> Printf.printf "paper bound  : %s = %.3f (constants 1)\n" label v
  | None -> ());
  if not lke then exit 2

let certify_cycle n k alpha =
  let s = Ncg.Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n) in
  report ~name:"cycle (Lemma 3.1)" ~n ~alpha ~k
    ~lke:(Ncg.Lke.is_lke_max ~alpha ~k s)
    ~quality:(Ncg.Game.quality Ncg.Game.Max ~alpha s)
    ~theory:(Some ("Omega(n/(1+alpha))", Ncg.Bounds.lb_cycle ~n ~alpha))

let certify_pg q alpha =
  let g = Ncg_gen.Projective_plane.incidence q in
  let np = Ncg_gen.Projective_plane.plane_size q in
  let buys =
    List.map (fun (u, v) -> if u < np then (u, v) else (v, u)) (Graph.edges g)
  in
  let n = Graph.order g in
  let s = Ncg.Strategy.of_buys ~n buys in
  report
    ~name:(Printf.sprintf "PG(2,%d) incidence (Lemma 3.2, k=2)" q)
    ~n ~alpha ~k:2
    ~lke:(Ncg.Lke.is_lke_max ~alpha ~k:2 s)
    ~quality:(Ncg.Game.quality Ncg.Game.Max ~alpha s)
    ~theory:(Some ("Omega(sqrt n)", Ncg.Bounds.lb_girth ~n ~k:2))

let torus ~alpha ~k ~delta =
  let ell = int_of_float (ceil alpha) in
  let side = ((k + ell - 1) / ell) + 1 in
  let t = Ncg_gen.Torus_grid.closed ~d:2 ~ell ~deltas:[| side; max delta side |] in
  let n = Graph.order t.Ncg_gen.Torus_grid.graph in
  (Ncg.Strategy.of_buys ~n t.Ncg_gen.Torus_grid.buys, n)

let certify_torus_max k alpha delta =
  let s, n = torus ~alpha ~k ~delta in
  report ~name:"stretched torus (Theorem 3.12)" ~n ~alpha ~k
    ~lke:(Ncg.Lke.is_lke_max ~alpha ~k s)
    ~quality:(Ncg.Game.quality Ncg.Game.Max ~alpha s)
    ~theory:(Some ("Theorem 3.12 LB", Ncg.Bounds.lb_torus ~n ~alpha ~k))

let certify_torus_sum k alpha delta =
  let t = Ncg_gen.Torus_grid.closed ~d:2 ~ell:2 ~deltas:[| 2; max delta 2 |] in
  let n = Graph.order t.Ncg_gen.Torus_grid.graph in
  let s = Ncg.Strategy.of_buys ~n t.Ncg_gen.Torus_grid.buys in
  report ~name:"stretched torus (Theorem 4.2, SumNCG)" ~n ~alpha ~k
    ~lke:(Ncg.Lke.is_lke_sum_exact ~alpha ~k s)
    ~quality:(Ncg.Game.quality Ncg.Game.Sum ~alpha s)
    ~theory:(Some ("Omega(n/k)", float_of_int n /. float_of_int k))

let q_arg = Arg.(value & opt int 3 & info [ "q" ] ~doc:"Prime order of the plane.")
let delta_arg = Arg.(value & opt int 6 & info [ "delta" ] ~doc:"Long torus dimension.")

let cycle_cmd =
  Cmd.v (Cmd.info "cycle" ~doc:"certify the Lemma 3.1 cycle")
    Term.(const certify_cycle $ Cli_terms.n 24 $ Cli_terms.k 2 $ Cli_terms.alpha)

let pg_cmd =
  Cmd.v (Cmd.info "pg" ~doc:"certify the PG(2,q) incidence graph (Lemma 3.2)")
    Term.(const certify_pg $ q_arg $ Cli_terms.alpha)

let torus_max_cmd =
  Cmd.v (Cmd.info "torus-max" ~doc:"certify the Theorem 3.12 torus (MaxNCG)")
    Term.(const certify_torus_max $ Cli_terms.k 2 $ Cli_terms.alpha $ delta_arg)

let torus_sum_cmd =
  Cmd.v (Cmd.info "torus-sum" ~doc:"certify the Theorem 4.2 torus (SumNCG)")
    Term.(
      ret
        (const (fun k alpha delta ->
             if k > 2 then
               `Error
                 (true, "only k = 2 is certifiable exactly (larger views explode)")
             else `Ok (certify_torus_sum k alpha delta))
        $ Cli_terms.k 2 $ Cli_terms.alpha $ delta_arg))

let cmd =
  Cmd.group
    (Cmd.info "ncg_certify" ~doc:"certify the paper's equilibrium constructions")
    [ cycle_cmd; pg_cmd; torus_max_cmd; torus_sum_cmd ]

let () = exit (Cmd.eval cmd)
