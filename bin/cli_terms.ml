(* Cli_terms: the command-line terms the ncg_* tools share, so each of
   the paper's axes is declared once — the sweep grid of ncg_experiment
   and ncg_submit, the single-run world of ncg_sim / ncg_report /
   ncg_trace, the game parameters (alpha, k, variant), the fault plan and
   the service addresses.

   Terms that check a value (spec, fault_plan, address) report a bad one
   as a term error with no usage block; the tools using them evaluate
   with [Cmd.eval ~term_err:2], so such input exits 2 with one
   "TOOL: message" line on stderr. Closed value sets (class, variant)
   are enums, rejected by cmdliner as usage errors. *)

open Cmdliner
module Sweep_spec = Ncg.Sweep_spec

let checked term = Term.term_result' ~usage:false term

(* --- World: --class, -n, -p, --seed ------------------------------------- *)

let graph_class values classes =
  let doc =
    "Initial graph class: " ^ Arg.doc_alts classes
    ^ " (ba is Barabasi-Albert, ws Watts-Strogatz)."
  in
  Arg.(value & opt values "tree" & info [ "class" ] ~docv:"CLASS" ~doc)

let n default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Players.")

let p =
  Arg.(value & opt float Sweep_spec.default.p & info [ "p" ] ~docv:"P"
         ~doc:"Edge probability (gnp).")

let seed default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED"
         ~doc:"Base random seed.")

(* The initial profile of a single run: the sweep classes, plus the
   deterministic cycle and star. *)
type world = { graph_class : string; n : int; p : float; seed : int }

let world_classes = Sweep_spec.graph_classes @ [ "cycle"; "star" ]

let world ~n:default_n =
  let values = Arg.enum (List.map (fun c -> (c, c)) world_classes) in
  Term.(
    const (fun graph_class n p seed -> { graph_class; n; p; seed })
    $ graph_class values world_classes $ n default_n $ p $ seed 1)

let initial { graph_class; n; p; seed } =
  match graph_class with
  | "cycle" -> Ncg.Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n)
  | "star" -> Ncg.Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n)
  | _ -> Sweep_spec.make_initial { Sweep_spec.default with graph_class; n; p } ~seed

(* --- Game: --alpha, -k, --variant --------------------------------------- *)

let alpha =
  Arg.(value & opt float 2.0 & info [ "alpha"; "a" ] ~docv:"ALPHA"
         ~doc:"Edge price.")

let k default =
  Arg.(value & opt int default & info [ "k" ] ~docv:"K"
         ~doc:"View radius (1000 = full knowledge).")

let variant =
  Arg.(value
       & opt (enum [ ("max", Ncg.Game.Max); ("sum", Ncg.Game.Sum) ]) Ncg.Game.Max
       & info [ "variant" ] ~docv:"V" ~doc:"Game variant: max or sum.")

(* --- Grids: --alphas, --ks ----------------------------------------------- *)

let alphas default =
  Arg.(value & opt (list float) default & info [ "alphas" ] ~docv:"LIST"
         ~doc:"Alpha grid.")

let ks default =
  Arg.(value & opt (list int) default & info [ "ks" ] ~docv:"LIST"
         ~doc:"View radius grid.")

(* --- Sweep spec: the ten flags behind Ncg.Sweep_spec.t ------------------ *)

let spec =
  let d = Sweep_spec.default in
  let make graph_class n p alphas ks trials seed budget move_budget no_probes =
    let probes = not no_probes in
    let spec =
      { Sweep_spec.graph_class; n; p; alphas; ks; trials; seed; budget; move_budget;
        probes }
    in
    Result.map (fun () -> spec) (Sweep_spec.validate spec)
  in
  let trials =
    Arg.(value & opt int d.trials & info [ "trials" ] ~docv:"T"
           ~doc:"Seeds per cell.")
  in
  let budget =
    Arg.(value & opt int d.budget & info [ "budget" ] ~docv:"N"
           ~doc:"Branch-and-bound node budget per best response.")
  in
  let move_budget =
    Arg.(value & opt int d.move_budget & info [ "move-budget" ] ~docv:"N"
           ~doc:"Cooperative checkpoint polls allowed per player move \
                 (0 = unlimited); an exhausted budget fails the move's \
                 cell with a timeout.")
  in
  let no_probes =
    Arg.(value & flag & info [ "no-probes" ]
           ~doc:"Skip the round-level convergence probes of each cell's \
                 exemplar trial. The CSV is byte-identical either way; \
                 telemetry/store payloads shrink and cache keys change.")
  in
  checked
    Term.(
      const make $ graph_class Arg.string Sweep_spec.graph_classes $ n d.n $ p
      $ alphas d.alphas $ ks d.ks $ trials $ seed d.seed $ budget $ move_budget
      $ no_probes)

(* --- Fault plan: --fault-plan, --fault-seed ----------------------------- *)

(* Parses and installs the plan; the plan is returned for reporting. *)
let fault_plan =
  let install spec seed =
    match spec with
    | None -> Ok None
    | Some spec -> (
        match Ncg_fault.Inject.parse_plan ~seed spec with
        | Ok plan ->
            Ncg_fault.Inject.install plan;
            Ok (Some plan)
        | Error msg -> Error ("--fault-plan: " ^ msg))
  in
  let spec =
    Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"SPEC"
           ~doc:"Deterministic fault-injection plan, e.g. \
                 'sweep.cell=raise@p:0.3,record_log.append=short:8@nth:2' \
                 (see docs/ROBUSTNESS.md).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N"
           ~doc:"Seed of the fault plan's probability draws.")
  in
  checked Term.(const install $ spec $ seed)

(* --- Service addresses: --connect, --listen ----------------------------- *)

let address_arg values default flag ~doc =
  Arg.value
    (Arg.opt values default
       (Arg.info [ flag ] ~docv:"ADDR"
          ~doc:(doc ^ " (unix:PATH or tcp:HOST:PORT)")))

let address flag ~doc =
  checked
    Term.(
      const Ncg_service.Protocol.parse_addr
      $ address_arg Arg.string "unix:ncg.sock" flag ~doc)

let address_opt flag ~doc =
  let parse = function
    | None -> Ok None
    | Some s -> Result.map Option.some (Ncg_service.Protocol.parse_addr s)
  in
  checked Term.(const parse $ address_arg Arg.(some string) None flag ~doc)
