(* Tests for the experiment harness. *)

module Experiment = Ncg.Experiment
module Strategy = Ncg.Strategy
module Dynamics = Ncg.Dynamics
module Game = Ncg.Game
module Graph = Ncg_graph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_paper_grids () =
  check_int "15 alphas" 15 (List.length Experiment.paper_alphas);
  check_int "12 ks" 12 (List.length Experiment.paper_ks);
  check_bool "k=1000 included" true (List.mem 1000 Experiment.paper_ks);
  check_bool "alpha=0.025 included" true (List.mem 0.025 Experiment.paper_alphas)

let test_initial_tree () =
  let s = Experiment.initial_tree ~seed:5 ~n:30 in
  check_int "players" 30 (Strategy.n_players s);
  check_int "purchases = n-1" 29 (Strategy.total_bought s);
  check_bool "connected" true (Ncg_graph.Bfs.is_connected (Strategy.graph s));
  (* Deterministic per seed. *)
  let s' = Experiment.initial_tree ~seed:5 ~n:30 in
  check_bool "deterministic" true (Strategy.equal s s');
  let s2 = Experiment.initial_tree ~seed:6 ~n:30 in
  check_bool "seed matters" false (Strategy.equal s s2)

let test_initial_gnp () =
  let s = Experiment.initial_gnp ~seed:7 ~n:40 ~p:0.15 in
  check_int "players" 40 (Strategy.n_players s);
  check_bool "connected" true (Ncg_graph.Bfs.is_connected (Strategy.graph s));
  check_int "purchases = edges" (Graph.size (Strategy.graph s)) (Strategy.total_bought s)

let test_initial_stats () =
  let s = Experiment.initial_tree ~seed:11 ~n:25 in
  let st = Experiment.initial_stats s in
  let g = Strategy.graph s in
  check_int "edges" (Graph.size g) st.Experiment.edges;
  check_int "diameter"
    (match Ncg_graph.Metrics.diameter g with Some d -> d | None -> -1)
    st.Experiment.diameter;
  check_int "max degree" (Ncg_graph.Metrics.max_degree g) st.Experiment.max_degree;
  check_bool "max bought >= 1" true (st.Experiment.max_bought >= 1)

let test_run_one () =
  let s = Experiment.initial_tree ~seed:3 ~n:15 in
  let cfg = Dynamics.default_config ~alpha:2.0 ~k:3 in
  let r = Experiment.run_one cfg s in
  check_bool "converged" true r.Experiment.converged;
  check_bool "not cycled" true (not r.Experiment.cycled);
  check_bool "quality >= 1 for alpha >= 1" true (r.Experiment.quality >= 1.0 -. 1e-9);
  check_bool "unfairness >= 1" true (r.Experiment.unfairness >= 1.0 -. 1e-9);
  check_bool "diameter positive" true (r.Experiment.diameter >= 1);
  check_bool "view sizes sane" true
    (r.Experiment.min_view >= 1 && r.Experiment.avg_view >= float_of_int r.Experiment.min_view);
  check_bool "social cost positive" true (r.Experiment.social_cost > 0.0)

let test_trials_and_summaries () =
  let cfg = Dynamics.default_config ~alpha:2.0 ~k:3 in
  let runs =
    Experiment.trials
      ~make_initial:(fun ~seed -> Experiment.initial_tree ~seed ~n:12)
      ~config:cfg ~trials:5 ~seed:100
  in
  check_int "five runs" 5 (List.length runs);
  let q = Experiment.summarize (fun r -> r.Experiment.quality) runs in
  check_int "summary n" 5 q.Ncg_stats.Summary.n;
  check_bool "mean quality >= 1" true (q.Ncg_stats.Summary.mean >= 1.0 -. 1e-9);
  let frac = Experiment.fraction (fun r -> r.Experiment.converged) runs in
  check_bool "most converge" true (frac >= 0.8)

let test_trials_deterministic () =
  let cfg = Dynamics.default_config ~alpha:1.0 ~k:2 in
  let run () =
    Experiment.trials
      ~make_initial:(fun ~seed -> Experiment.initial_tree ~seed ~n:10)
      ~config:cfg ~trials:3 ~seed:42
  in
  let a = List.map (fun r -> r.Experiment.social_cost) (run ()) in
  let b = List.map (fun r -> r.Experiment.social_cost) (run ()) in
  Alcotest.(check (list (float 1e-12))) "reproducible" a b

let test_derive_seeds () =
  let a = Experiment.derive_seeds ~seed:42 ~count:8 in
  let b = Experiment.derive_seeds ~seed:42 ~count:8 in
  check_bool "deterministic" true (a = b);
  (* A prefix of a longer stream: trial seeds don't depend on the count. *)
  let longer = Experiment.derive_seeds ~seed:42 ~count:16 in
  check_bool "prefix stable" true (Array.sub longer 0 8 = a);
  let other = Experiment.derive_seeds ~seed:43 ~count:8 in
  check_bool "seed matters" false (a = other);
  let distinct = List.sort_uniq compare (Array.to_list a) in
  check_int "all distinct" 8 (List.length distinct)

let test_derive_seeds_golden () =
  (* Frozen snapshot of the SplitMix64 stream. These values are load-
     bearing: every published sweep, every store cache key and every
     --only-cell reproduction assumes seed derivation never changes. If
     this test fails, the change breaks all existing result stores. *)
  let golden_2014 =
    [|
      -4192831650131979260;
      195712523871778755;
      2363781521631100635;
      1407460852654598280;
      1403179157520910089;
      4283057755417690474;
      1039990551353643555;
      890011278414683468;
    |]
  in
  check_bool "seed 2014 stream frozen" true
    (Experiment.derive_seeds ~seed:2014 ~count:8 = golden_2014);
  let golden_0 =
    [|
      -2152535657050944081;
      -1263085514660420108;
      487617019471545679;
      -537132696929009172;
    |]
  in
  check_bool "seed 0 stream frozen" true
    (Experiment.derive_seeds ~seed:0 ~count:4 = golden_0)

let sweep_fixture ?probes ~domains () =
  Experiment.sweep ?probes ~domains
    ~make_initial:(fun ~seed -> Experiment.initial_tree ~seed ~n:12)
    ~make_config:(fun (c : Experiment.cell) ->
      {
        (Dynamics.default_config ~alpha:c.Experiment.alpha ~k:c.Experiment.k) with
        Dynamics.collect_features = false;
      })
    ~cells:(Experiment.grid ~alphas:[ 0.5; 2.0 ] ~ks:[ 2; 3; 1000 ])
    ~trials:3 ~seed:2014 ()

(* --- --only-cell replay ------------------------------------------------------

   [sweep_supervised ~only:i] (the engine behind [ncg_experiment
   --only-cell]) must replay grid cell [i] exactly as the full sweep ran
   it: same seed, same fault scope, same attempt loop. Under a seeded
   probabilistic crash plan that means the same row for a survivor and
   the same quarantine — attempts, kind, error — for a victim. *)

let replay_trials = 2

let supervised_fixture ?only ~max_retries () =
  Experiment.sweep_supervised ?only ~domains:2 ~max_retries
    ~make_initial:(fun ~seed -> Experiment.initial_tree ~seed ~n:12)
    ~make_config:(fun (c : Experiment.cell) ->
      {
        (Dynamics.default_config ~alpha:c.Experiment.alpha ~k:c.Experiment.k) with
        Dynamics.collect_features = false;
      })
    ~cells:(Experiment.grid ~alphas:[ 0.5; 2.0 ] ~ks:[ 2; 3; 1000 ])
    ~trials:replay_trials ~seed:2014 ()

let outcome_summary = function
  | Ok r ->
      Ok
        (Experiment.csv_row ~graph_class:"tree" ~n:12 ~p:0.1
           ~trials:replay_trials r)
  | Error (f : Experiment.cell_failure) ->
      Error
        ( f.Experiment.index,
          f.Experiment.attempts,
          Ncg_fault.Executor.kind_to_string f.Experiment.kind,
          f.Experiment.exn_text )

let test_only_cell_replays_full_sweep () =
  (match Ncg_fault.Inject.parse_plan ~seed:7 "sweep.cell=raise@p:0.5" with
  | Ok plan -> Ncg_fault.Inject.install plan
  | Error msg -> Alcotest.failf "plan: %s" msg);
  Fun.protect ~finally:Ncg_fault.Inject.clear (fun () ->
      List.iter
        (fun max_retries ->
          let full =
            List.map outcome_summary (supervised_fixture ~max_retries ())
          in
          check_bool "some cell quarantined" true
            (List.exists Result.is_error full);
          check_bool "some cell survived" true (List.exists Result.is_ok full);
          List.iteri
            (fun i expected ->
              match supervised_fixture ~only:i ~max_retries () with
              | [ outcome ] ->
                  check_bool
                    (Printf.sprintf "cell %d, max_retries %d" i max_retries)
                    true
                    (outcome_summary outcome = expected)
              | _ -> Alcotest.fail "~only returns one outcome")
            full)
        [ 0; 1 ])

let test_sweep_shape () =
  let results = sweep_fixture ~domains:1 () in
  check_int "six cells" 6 (List.length results);
  let first = List.hd results in
  check_bool "cell order row-major" true
    (first.Experiment.cell = { Experiment.alpha = 0.5; k = 2 });
  check_int "three runs per cell" 3 (List.length first.Experiment.runs);
  (* Telemetry present: the cell counted its solver work and spans one
     child per trial. *)
  check_bool "bfs counted" true
    (List.assoc "bfs.calls" first.Experiment.counters > 0);
  check_bool "best responses counted" true
    (List.assoc "best_response.calls" first.Experiment.counters > 0);
  check_int "trial spans" 3
    (List.length first.Experiment.spans.Ncg_obs.Span.children);
  check_bool "wall time positive" true (first.Experiment.wall_ns > 0L);
  (* New telemetry: histograms sampled the oracles, the GC delta counted
     the cell's allocations, and the cell knows where and when it ran. *)
  let hist name =
    List.assoc (Ncg_obs.Histogram.name name) first.Experiment.histograms
  in
  check_bool "best response latencies sampled" true
    (Ncg_obs.Histogram.count (hist Ncg_obs.Histogram.best_response) > 0);
  check_int "one sweep-cell sample" 1
    (Ncg_obs.Histogram.count (hist Ncg_obs.Histogram.sweep_cell));
  check_bool "cell allocated words" true
    (Ncg_obs.Gc_stats.allocated_words first.Experiment.gc > 0.0);
  check_bool "domain recorded" true (first.Experiment.domain >= 0);
  check_bool "start before end" true
    (first.Experiment.started_ns > 0L
    && first.Experiment.wall_ns >= first.Experiment.spans.Ncg_obs.Span.elapsed_ns)

let test_sweep_deterministic_across_domains () =
  (* The tentpole contract: same seed => byte-identical run statistics,
     per-cell counters, histogram sample counts and GC allocated words,
     whatever the fan-out. (Histogram bucket placement and GC collection
     counts are timing-dependent and deliberately excluded.) *)
  let reference = sweep_fixture ~domains:1 () in
  List.iter
    (fun domains ->
      let results = sweep_fixture ~domains () in
      List.iter2
        (fun (a : Experiment.cell_result) (b : Experiment.cell_result) ->
          let cell_check what ok =
            check_bool
              (Printf.sprintf "cell (%g,%d) %s identical at %d domains"
                 a.Experiment.cell.Experiment.alpha
                 a.Experiment.cell.Experiment.k what domains)
              true ok
          in
          cell_check "runs" (a.Experiment.runs = b.Experiment.runs);
          cell_check "counters" (a.Experiment.counters = b.Experiment.counters);
          cell_check "histogram sample counts"
            (Ncg_obs.Histogram.counts_only a.Experiment.histograms
            = Ncg_obs.Histogram.counts_only b.Experiment.histograms);
          cell_check "gc allocated words"
            (Ncg_obs.Gc_stats.allocated_words a.Experiment.gc
            = Ncg_obs.Gc_stats.allocated_words b.Experiment.gc);
          cell_check "probe series"
            (Ncg_obs.Probe.equal_snapshot a.Experiment.probes b.Experiment.probes))
        reference results)
    [ 2; 4 ]

let test_probes_toggle_and_series () =
  (* Disabling probes must not change the run statistics — the CSV and
     every downstream summary is a pure function of [runs]. *)
  let on = sweep_fixture ~domains:2 () in
  let off = sweep_fixture ~probes:false ~domains:2 () in
  List.iter2
    (fun (a : Experiment.cell_result) (b : Experiment.cell_result) ->
      check_bool "runs identical with probes off" true
        (a.Experiment.runs = b.Experiment.runs);
      check_bool "probes-off snapshot is the empty shape" true
        (Ncg_obs.Probe.equal_snapshot b.Experiment.probes
           (Ncg_obs.Probe.empty_snapshot ())))
    on off;
  (* With probes on, the exemplar trial recorded per-round series. *)
  let first = List.hd on in
  let series probe =
    List.assoc (Ncg_obs.Probe.name probe) first.Experiment.probes
  in
  check_bool "social-cost series sampled" false
    (Ncg_obs.Timeseries.is_empty (series Ncg_obs.Probe.social_cost));
  check_bool "awake-players series sampled" false
    (Ncg_obs.Timeseries.is_empty (series Ncg_obs.Probe.awake_players));
  (* Probing shifts counters (the per-round social-cost BFS), which is
     exactly why the flag participates in the cell cache key. *)
  let key probes =
    Experiment.cell_cache_key ~probes ~context:[] ~seed:1 ~trials:2 ~cell_seed:7
      { Experiment.alpha = 0.5; k = 2 }
  in
  check_bool "cache key depends on the probes flag" false (key true = key false);
  (* Cell payload codec (ncg.store.cell/7) round-trips the series. *)
  match Experiment.cell_result_of_json (Experiment.cell_result_to_json first) with
  | Ok rt ->
      check_bool "payload round-trips probe series" true
        (Ncg_obs.Probe.equal_snapshot rt.Experiment.probes first.Experiment.probes)
  | Error e -> Alcotest.failf "cell payload did not round-trip: %s" e

let test_sweep_counters_isolated_per_cell () =
  (* Counts recorded inside a sweep must not leak into an enclosing
     collector beyond the totals, and totals equal the cell sum. *)
  let results, outer =
    Ncg_obs.Metrics.collect (fun () -> sweep_fixture ~domains:2 ())
  in
  let totals = Experiment.sweep_counters results in
  (* Spawned-domain cells count into their own collectors only; the
     caller's collector sees just the chunk it ran itself, so it can be
     at most the totals. *)
  check_bool "outer <= totals" true
    (List.for_all
       (fun (name, v) ->
         match List.assoc_opt name totals with
         | Some t -> v <= t
         | None -> v = 0)
       outer);
  check_bool "totals positive" true (List.assoc "bfs.calls" totals > 0)

let test_every_radius_solved_or_shortcut () =
  (* Each radius of the best-response loop is answered either by one
     set-cover solve or by a Dominating_set shortcut, in every cell. *)
  let count (r : Experiment.cell_result) name =
    Option.value ~default:0 (List.assoc_opt name r.Experiment.counters)
  in
  let results = sweep_fixture ~domains:1 () in
  List.iter
    (fun r ->
      check_int "radii_tried = solves + shortcuts"
        (count r "best_response.radii_tried")
        (count r "set_cover.solves" + count r "dominating_set.shortcuts"))
    results;
  let totals = Experiment.sweep_counters results in
  check_bool "some radii shortcut" true
    (List.assoc "dominating_set.shortcuts" totals > 0)

let test_initial_ba_ws () =
  let ba = Experiment.initial_ba ~seed:4 ~n:30 ~m:2 in
  check_bool "ba connected" true (Ncg_graph.Bfs.is_connected (Strategy.graph ba));
  check_int "ba players" 30 (Strategy.n_players ba);
  let ws = Experiment.initial_ws ~seed:4 ~n:30 ~k:4 ~beta:0.2 in
  check_bool "ws connected" true (Ncg_graph.Bfs.is_connected (Strategy.graph ws));
  check_int "ws purchases = edges" (Graph.size (Strategy.graph ws))
    (Strategy.total_bought ws)

let test_full_knowledge_view_sizes () =
  (* With k = 1000 every converged player sees everything. *)
  let s = Experiment.initial_tree ~seed:8 ~n:12 in
  let cfg = Dynamics.default_config ~alpha:2.0 ~k:1000 in
  let r = Experiment.run_one cfg s in
  check_int "min view = n" 12 r.Experiment.min_view

(* --- One-pass trial statistics vs the per-statistic oracles ------------------ *)

(* The composition the one-pass summary replaced: a radius-k ball per
   player, then Game.social_cost, Game.unfairness and the diameter as
   the largest per-vertex eccentricity, each with its own all-pairs BFS
   pass. *)
let old_summary variant ~alpha ~k s =
  let g = Strategy.graph s in
  let views =
    Array.init (Graph.order g) (fun u ->
        List.length (Ncg_graph.Bfs.ball g u ~radius:k))
  in
  let or_nan = function Some c -> c | None -> nan in
  let eccentricities = List.init (Graph.order g) (Ncg_graph.Bfs.eccentricity g) in
  ( views,
    (if eccentricities <> [] && List.for_all Option.is_some eccentricities then
       List.fold_left (fun acc e -> max acc (Option.get e)) 0 eccentricities
     else -1),
    or_nan (Game.social_cost variant ~alpha s),
    or_nan (Game.unfairness variant ~alpha s g) )

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let summary_matches variant ~alpha ~k s =
  let views, diameter, social_cost, unfairness = old_summary variant ~alpha ~k s in
  let sm = Ncg.Features.summarize variant ~alpha ~k s (Strategy.graph s) in
  sm.Ncg.Features.views = views
  && sm.Ncg.Features.diameter = diameter
  && same_float sm.Ncg.Features.social_cost social_cost
  && same_float sm.Ncg.Features.unfairness unfairness

(* Random profiles on up to 25 players: sparse ones are often
   disconnected, dense ones connected; α is an arbitrary float so the
   left-to-right cost fold is exercised bit for bit. *)
let prop_summary_matches_oracles =
  QCheck.Test.make ~name:"one-pass summary = ball/social cost/unfairness/diameter"
    ~count:200
    QCheck.(
      quad (int_range 1 25) (int_range 1 6) (float_range 0.01 12.0)
        (pair (int_range 0 10_000) (int_range 0 3)))
    (fun (n, k, alpha, (seed, density)) ->
      let rng = Ncg_prng.Rng.create seed in
      let buys =
        List.init (density * n) (fun _ ->
            (Ncg_prng.Rng.int rng n, Ncg_prng.Rng.int rng n))
        |> List.filter (fun (a, b) -> a <> b)
      in
      let s = Strategy.of_buys ~n buys in
      summary_matches Game.Max ~alpha ~k s && summary_matches Game.Sum ~alpha ~k s)

let test_summary_fixed_profiles () =
  let tree = Experiment.initial_tree ~seed:21 ~n:40 in
  let split = Strategy.of_buys ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  List.iter
    (fun (name, s) ->
      List.iter
        (fun (variant, k) ->
          check_bool
            (Printf.sprintf "%s %s k=%d" name (Game.variant_to_string variant) k)
            true
            (summary_matches variant ~alpha:0.7 ~k s))
        [ (Game.Max, 1); (Game.Max, 3); (Game.Sum, 2); (Game.Sum, 1000) ])
    [ ("tree", tree); ("disconnected", split); ("single player", Strategy.create ~n:1) ]

(* run_one reads its statistics off the summary of the final profile. *)
let test_run_one_matches_oracles () =
  List.iter
    (fun (variant, alpha, k, seed) ->
      let cfg =
        {
          (Dynamics.default_config ~alpha ~k) with
          Dynamics.variant;
          collect_features = false;
          max_rounds = 30;
        }
      in
      let s = Experiment.initial_tree ~seed ~n:20 in
      let final = (Dynamics.run cfg s).Dynamics.final in
      let views, diameter, social_cost, unfairness =
        old_summary variant ~alpha ~k final
      in
      let r = Experiment.run_one cfg s in
      let n = Strategy.n_players final in
      check_int "min view" (Ncg_util.Arrayx.min_elt views) r.Experiment.min_view;
      check_bool "avg view" true
        (same_float
           (float_of_int (Ncg_util.Arrayx.sum views) /. float_of_int n)
           r.Experiment.avg_view);
      check_int "diameter" diameter r.Experiment.diameter;
      check_bool "social cost" true (same_float social_cost r.Experiment.social_cost);
      check_bool "unfairness" true (same_float unfairness r.Experiment.unfairness);
      check_bool "quality" true
        (same_float
           (social_cost /. Game.social_optimum variant ~alpha ~n)
           r.Experiment.quality))
    [ (Game.Max, 0.5, 2, 1); (Game.Max, 3.0, 1000, 2); (Game.Sum, 1.5, 3, 3) ]

let () =
  Alcotest.run "experiment"
    [
      ( "setup",
        [
          Alcotest.test_case "paper grids" `Quick test_paper_grids;
          Alcotest.test_case "initial tree" `Quick test_initial_tree;
          Alcotest.test_case "initial gnp" `Quick test_initial_gnp;
          Alcotest.test_case "initial stats" `Quick test_initial_stats;
        ] );
      ( "runs",
        [
          Alcotest.test_case "run_one" `Quick test_run_one;
          Alcotest.test_case "trials + summaries" `Quick test_trials_and_summaries;
          Alcotest.test_case "determinism" `Quick test_trials_deterministic;
          Alcotest.test_case "ba/ws initials" `Quick test_initial_ba_ws;
          Alcotest.test_case "full knowledge views" `Quick test_full_knowledge_view_sizes;
          Alcotest.test_case "run_one = per-statistic oracles" `Quick
            test_run_one_matches_oracles;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "seed derivation" `Quick test_derive_seeds;
          Alcotest.test_case "seed derivation golden snapshot" `Quick
            test_derive_seeds_golden;
          Alcotest.test_case "shape + telemetry" `Quick test_sweep_shape;
          Alcotest.test_case "deterministic across domains" `Quick
            test_sweep_deterministic_across_domains;
          Alcotest.test_case "per-cell counter isolation" `Quick
            test_sweep_counters_isolated_per_cell;
          Alcotest.test_case "every radius solved or shortcut" `Quick
            test_every_radius_solved_or_shortcut;
          Alcotest.test_case "probes toggle + exemplar series" `Quick
            test_probes_toggle_and_series;
          Alcotest.test_case "--only-cell replays the full sweep" `Quick
            test_only_cell_replays_full_sweep;
        ] );
      ( "summary",
        [
          QCheck_alcotest.to_alcotest prop_summary_matches_oracles;
          Alcotest.test_case "fixed profiles" `Quick test_summary_fixed_profiles;
        ] );
    ]
