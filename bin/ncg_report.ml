(* ncg_report: run one dynamics and write a self-contained markdown report
   (configuration, outcome, per-round features, social-cost chart, trace
   summary).

   Example:
     dune exec bin/ncg_report.exe -- --class tree -n 40 --alpha 2 -k 3 \
         --out report.md

   With --telemetry FILE it instead summarizes an existing sweep telemetry
   document: a latency table (count, p50/p90/p99, max) per histogram in
   the sweep-wide "histograms_total" section. *)

open Cmdliner

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let latency_report path out =
  let module Json = Ncg_obs.Json in
  let doc =
    match Json.of_file path with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  let num name j =
    match Json.member name j with
    | Some (Json.Int i) -> float_of_int i
    | Some (Json.Float f) -> f
    | _ -> nan
  in
  let hists =
    match Json.member "histograms_total" doc with
    | Some (Json.Obj fields) -> fields
    | _ ->
        failwith
          (Printf.sprintf "%s: no \"histograms_total\" object (is this sweep \
                           telemetry?)" path)
  in
  let md = Ncg_reporting.Markdown.create () in
  Ncg_reporting.Markdown.heading md 1 "Sweep latency profile";
  Ncg_reporting.Markdown.paragraph md
    (Printf.sprintf "Source: `%s`, %d histogram(s)." path (List.length hists));
  Ncg_reporting.Markdown.table md
    ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ]
    (List.map
       (fun (name, h) ->
         [
           name;
           Printf.sprintf "%.0f" (num "count" h);
           pretty_ns (num "p50_ns" h);
           pretty_ns (num "p90_ns" h);
           pretty_ns (num "p99_ns" h);
           pretty_ns (num "max_ns" h);
         ])
       hists);
  let report = Ncg_reporting.Markdown.to_string md in
  match out with
  | None -> print_string report
  | Some path ->
      Ncg_obs.Atomic_file.write path report;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length report)

let run ({ Cli_terms.graph_class; n; seed; _ } as world) alpha k variant
    telemetry out =
  match telemetry with
  | Some path -> latency_report path out
  | None ->
  let strategy = Cli_terms.initial world in
  let config =
    {
      (Ncg.Dynamics.default_config ~alpha ~k) with
      Ncg.Dynamics.variant;
      solver = `Budgeted 50_000;
      sum_mode = `Branch_and_bound 34;
    }
  in
  let result = Ncg.Dynamics.run config strategy in
  let title =
    Printf.sprintf "%sNCG dynamics on %s (n=%d, alpha=%g, k=%d, seed=%d)"
      (Ncg.Game.variant_to_string variant)
      graph_class n alpha k seed
  in
  let report = Ncg_reporting.Run_report.of_run ~title config strategy result in
  match out with
  | None -> print_string report
  | Some path ->
      Ncg_obs.Atomic_file.write path report;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length report)

let telemetry =
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
         ~doc:"Summarize this sweep telemetry JSON (latency table from its \
               histograms_total section) instead of running a dynamics.")

let out =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Write the report here instead of stdout.")

let cmd =
  let doc = "write a markdown report of one dynamics run" in
  Cmd.v (Cmd.info "ncg_report" ~doc)
    Term.(
      const run $ Cli_terms.world ~n:40 $ Cli_terms.alpha $ Cli_terms.k 3
      $ Cli_terms.variant $ telemetry $ out)

let () = exit (Cmd.eval cmd)
