(* The in-process half of the benchmark (perfbench/run.py is the driver).

     ncg_perfbench sweep --workload sweep-paper|sweep-wide --seed N
                         --seconds S --trace 0|1
     ncg_perfbench service-prepare --seed N --seconds S --store DIR --out FILE
     ncg_perfbench service-check --in FILE --trace 0|1

   Each subcommand prints one JSON object on its last stdout line: raw
   samples, exact counts and the output checks. Percentiles and the final
   metric report are computed by run.py from the raw samples. *)

module Experiment = Ncg.Experiment
module Sweep_spec = Ncg.Sweep_spec
module Strategy = Ncg.Strategy
module Dynamics = Ncg.Dynamics
module Json = Ncg_obs.Json
module Span = Ncg_obs.Span
module Histogram = Ncg_obs.Histogram
module Gc_stats = Ncg_obs.Gc_stats
module Protocol = Ncg_service.Protocol

let now = Replay.now
let sec ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6
let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* --- Arguments ------------------------------------------------------------ *)

let args =
  let rec pairs = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        (String.sub key 2 (String.length key - 2), value) :: pairs rest
    | [] -> []
    | bad :: _ -> failwith (Printf.sprintf "unexpected argument %S" bad)
  in
  match Array.to_list Sys.argv with
  | _ :: _ :: rest -> pairs rest
  | _ -> []

let arg name =
  match List.assoc_opt name args with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing --%s" name)

let int_arg name =
  match int_of_string_opt (arg name) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "--%s: expected an integer" name)

(* --- Output checks ---------------------------------------------------------- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : Json.t list;
}

let checks = { attempted = 0; failed = 0; failures = [] }

let check name ok detail =
  checks.attempted <- checks.attempted + 1;
  if not ok then begin
    checks.failed <- checks.failed + 1;
    checks.failures <-
      Json.Obj [ ("check", Json.String name); ("detail", Json.String detail) ]
      :: checks.failures
  end

let checks_json () =
  [
    ("attempted", Json.Int checks.attempted);
    ("failed", Json.Int checks.failed);
    ("failures", Json.List (List.rev checks.failures));
  ]

(* Peak resident set of this process, from /proc (kB). *)
let vmhwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Seeded choice of [k] distinct elements of [0, n). *)
let sample rng ~k n =
  let order = Array.init n Fun.id in
  Ncg_prng.Rng.shuffle rng order;
  List.sort compare (Array.to_list (Array.sub order 0 (min k n)))

(* --- Work counters ---------------------------------------------------------- *)

(* Benchmark metric name -> program counter name. *)
let count_names =
  [
    ("br.calls", "best_response.calls");
    ("br.radii", "best_response.radii_tried");
    ("bfs.calls", "bfs.calls");
    ("view.extracts", "view.extracts");
    ("set_cover.solves", "set_cover.solves");
    ("set_cover.bb_nodes", "set_cover.bb_nodes");
    ("set_cover.bb_cutoffs", "set_cover.bb_cutoffs");
    ("set_cover.greedy_runs", "set_cover.greedy_runs");
    ("dynamics.rounds", "dynamics.rounds");
    ("dynamics.moves", "dynamics.moves");
  ]

let counter snap name = Option.value ~default:0 (List.assoc_opt name snap)

let counts_json snap =
  Json.Obj
    (List.map
       (fun (ours, theirs) -> (ours, Json.Int (counter snap theirs)))
       count_names)

(* --- Layer attribution ------------------------------------------------------- *)

(* One replayed trajectory next to its untraced Dynamics.run: the final
   profile, move count, round count and the work counters of the two
   must agree, or the replay is not measuring the program. *)
let replay_pair ~label ~flip acc_layers dyn_ns config s0 =
  let dynamics () = Replay.run_dynamics config s0 in
  let replay () = Replay.run config s0 in
  let (dyn, dns, dcounters), (rep, layers, rcounters) =
    if flip then
      let r = replay () in
      let d = dynamics () in
      (d, r)
    else
      let d = dynamics () in
      (d, replay ())
  in
  Replay.add_into acc_layers layers;
  dyn_ns := !dyn_ns + dns;
  check "replay.final" (Strategy.equal dyn.Dynamics.final rep.Replay.final) label;
  check "replay.moves"
    (dyn.Dynamics.total_moves = rep.Replay.moves
    && dyn.Dynamics.rounds = rep.Replay.rounds
    && dyn.Dynamics.outcome = rep.Replay.outcome)
    label;
  List.iter
    (fun name ->
      check ("replay." ^ name)
        (counter dcounters name = counter rcounters name)
        (Printf.sprintf "%s: dynamics %d, replay %d" label (counter dcounters name)
           (counter rcounters name)))
    [ "best_response.calls"; "set_cover.solves"; "view.extracts" ];
  dyn

let trial_spans (r : Experiment.cell_result) = r.Experiment.spans.Span.children

let dynamics_ns (trial : Span.t) =
  match Span.find trial "dynamics.run" with
  | Some s -> Int64.to_int s.Span.elapsed_ns
  | None -> 0

(* Time accounting of a set of cells: their wall splits into the harness
   around each trial (cell self, trial self) and Dynamics.run, and
   Dynamics.run splits by the replay's layer shares. The rows therefore
   sum to the cells' wall; the dynamics rows are the replay's measured
   shares applied to the program's own dynamics.run time. *)
let attribution (results : Experiment.cell_result list) (layers : Replay.layers) =
  let cell_wall =
    List.fold_left (fun a r -> a + Int64.to_int r.Experiment.wall_ns) 0 results
  in
  let trials = List.concat_map trial_spans results in
  let trial_wall =
    List.fold_left (fun a t -> a + Int64.to_int t.Span.elapsed_ns) 0 trials
  in
  let dyn = List.fold_left (fun a t -> a + dynamics_ns t) 0 trials in
  let scale ns =
    if layers.Replay.wall_ns = 0 then 0.
    else float_of_int ns /. float_of_int layers.Replay.wall_ns *. float_of_int dyn
  in
  let rows =
    [
      ("harness.cell_self", float_of_int (cell_wall - trial_wall));
      ("harness.trial_self", float_of_int (trial_wall - dyn));
    ]
    @ List.map (fun (name, ns) -> (name, scale ns)) (Replay.rows layers)
  in
  (cell_wall, rows)

let hist_sum_s results h =
  sec (Replay.hist_sum_ns (Experiment.sweep_histograms results) h)

(* Per-layer metrics of a set of cells and the replay of their
   trajectories, shared by every workload. *)
let layer_json ~results ~layers ~dyn_pair_ns ~major_collections =
  let snap = Experiment.sweep_counters results in
  let gc = Experiment.sweep_gc results in
  let cell_wall, rows = attribution results layers in
  let row name = sec (int_of_float (List.assoc name rows)) in
  let moves = counter snap "dynamics.moves" in
  let calls = counter snap "best_response.calls" in
  let values =
    [
      ("harness.trial_self_s", row "harness.trial_self");
      ("dynamics.self_s", row "dynamics.self");
      ( "br.useful_ratio",
        if calls = 0 then 0. else float_of_int moves /. float_of_int calls );
      ("view.extract_s", row "view.extract");
      ("strategy.with_owned_s", row "strategy.with_owned");
      ("strategy.graph_s", row "strategy.graph");
      ("strategy.key_s", row "strategy.key");
      ("br.s", hist_sum_s results Histogram.best_response);
      ("br.self_s", row "br.self");
      ("ds.context_s", row "ds.context");
      ("set_cover.solve_s", hist_sum_s results Histogram.set_cover);
      ("gc.alloc_words", Gc_stats.allocated_words gc);
      ("gc.major_words", gc.Gc_stats.major_words);
      ("gc.major_collections", float_of_int major_collections);
      ( "trace.overhead_frac",
        if dyn_pair_ns = 0 then 0.
        else
          float_of_int layers.Replay.wall_ns /. float_of_int dyn_pair_ns -. 1. );
    ]
  in
  [
    ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) values));
    ( "shares",
      Json.List
        (List.map
           (fun (name, ns) ->
             Json.List [ Json.String name; Json.Float (ns /. 1e9) ])
           rows) );
    ("shares_wall_s", Json.Float (sec cell_wall));
  ]

(* --- Sweep workloads ---------------------------------------------------------- *)

type sweep_workload = {
  n : int;
  alphas : float list;
  ks : int list;
  domains : int;
  pass_s : float;
      (* nominal wall of one pass (one trajectory per cell) on a 2-core
         x86-64 box: sizes a run to about --seconds of measured work *)
  min_passes : int;
      (* enough trajectories for the tail percentile to keep ten samples
         beyond it, and a run long enough to average over the minute-scale
         speed swings of a shared machine *)
  lke_samples : int;
  recheck_cells : int;
}

let sweep_workloads =
  [
    ( "sweep-paper",
      {
        n = 100;
        alphas = [ 0.5; 1.; 2.; 5. ];
        ks = [ 3; 5; 7; 1000 ];
        domains = 1;
        pass_s = 3.5;
        min_passes = 8;
        lke_samples = 3;
        recheck_cells = 4;
      } );
    ( "sweep-wide",
      {
        n = 2000;
        alphas = [ 0.5; 1.; 2.; 5. ];
        ks = [ 1; 2 ];
        domains = 2;
        pass_s = 4.4;
        min_passes = 5;
        lke_samples = 2;
        recheck_cells = 2;
      } );
  ]

let setup_repeats = 21

let sweep_main () =
  let name = arg "workload" in
  let w =
    match List.assoc_opt name sweep_workloads with
    | Some w -> w
    | None -> failwith (Printf.sprintf "unknown sweep workload %S" name)
  in
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let trace = int_arg "trace" = 1 in
  Ncg_obs.Events.set_progress false;
  let spec =
    {
      Sweep_spec.default with
      graph_class = "tree";
      n = w.n;
      alphas = w.alphas;
      ks = w.ks;
      trials = 1;
    }
  in
  let cells = Array.of_list (Sweep_spec.cells spec) in
  let ncells = Array.length cells in
  let passes = max w.min_passes (int_of_float (Float.round (seconds /. w.pass_s))) in
  let pass_seeds = Experiment.derive_seeds ~seed ~count:passes in
  (* The seed of every trajectory's initial profile, exactly as run_cell
     derives it: pass seed -> cell seeds -> the single trial's seed. *)
  let cell_seeds =
    Array.map (fun s -> Experiment.derive_seeds ~seed:s ~count:ncells) pass_seeds
  in
  let initial_seeds =
    Array.map
      (Array.map (fun c -> (Experiment.derive_seeds ~seed:c ~count:1).(0)))
      cell_seeds
  in
  (* Set-up: generate every initial profile of the run, several times;
     the program only ever receives them through make_initial. *)
  let generate () =
    let table = Hashtbl.create (passes * ncells) in
    Array.iter
      (Array.iter (fun s ->
           Hashtbl.replace table s (Sweep_spec.make_initial spec ~seed:s)))
      initial_seeds;
    table
  in
  let setup_samples = ref [] in
  let table = ref (Hashtbl.create 0) in
  for _ = 1 to setup_repeats do
    let t0 = now () in
    table := generate ();
    setup_samples := sec (now () - t0) :: !setup_samples
  done;
  let table = !table in
  let make_initial ~seed =
    match Hashtbl.find_opt table seed with
    | Some s -> s
    | None -> failwith "perfbench: no generated initial profile for this seed"
  in
  let make_config = Sweep_spec.make_config spec in
  let sweep ~domains ?cell_seeds ~cells ~seed () =
    Experiment.sweep_supervised ~domains ~probes:true ?cell_seeds ~make_initial
      ~make_config ~cells ~trials:1 ~seed ()
  in
  (* Measured phase. *)
  let gc0 = Gc.quick_stat () in
  let runs =
    Array.map
      (fun pass_seed ->
        let t0 = now () in
        let outcomes =
          sweep ~domains:w.domains ~cells:(Array.to_list cells) ~seed:pass_seed ()
        in
        (t0, now () - t0, outcomes))
      pass_seeds
  in
  let major_collections =
    (Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections
  in
  (* before the checks, which run more cells and trajectories *)
  let peak_rss_kb = vmhwm_kb () in
  let ok outcomes = List.filter_map Result.to_option outcomes in
  let results = List.concat_map (fun (_, _, o) -> ok o) (Array.to_list runs) in
  let quarantined =
    Array.fold_left
      (fun a (_, _, o) -> a + List.length (Experiment.sweep_failures o))
      0 runs
  in
  checks.attempted <- checks.attempted + (passes * ncells);
  checks.failed <- checks.failed + quarantined;
  let row r = Sweep_spec.csv_row spec r in
  let trials = List.concat_map trial_spans results in
  let traj_ms = List.map (fun t -> ms (Int64.to_int t.Span.elapsed_ns)) trials in
  let queue_wait_ms, cell_run_ms =
    List.split
      (List.concat_map
         (fun (t0, _, o) ->
           List.map
             (fun (r : Experiment.cell_result) ->
               ( ms (Int64.to_int r.Experiment.started_ns - t0),
                 ms (Int64.to_int r.Experiment.wall_ns) ))
             (ok o))
         (Array.to_list runs))
  in
  let pass_wall = Array.fold_left (fun a (_, wall, _) -> a + wall) 0 runs in
  let busy =
    float_of_int (Int64.to_int (Experiment.sweep_wall_ns results))
    /. float_of_int (w.domains * pass_wall)
  in
  let rng = Ncg_prng.Rng.create seed in
  let _, _, pass0 = runs.(0) in
  let pass0 = Array.of_list pass0 in
  (* Check: a seeded subset of pass 0 re-run on the other domain count
     gives byte-identical CSV rows and identical work counters. *)
  let subset = sample rng ~k:w.recheck_cells ncells in
  let again =
    sweep
      ~domains:(if w.domains = 1 then 2 else 1)
      ~cell_seeds:(Array.of_list (List.map (fun i -> cell_seeds.(0).(i)) subset))
      ~cells:(List.map (fun i -> cells.(i)) subset)
      ~seed:pass_seeds.(0) ()
  in
  List.iter2
    (fun i outcome ->
      let label =
        Printf.sprintf "pass 0 cell alpha=%g k=%d" cells.(i).alpha cells.(i).k
      in
      match (pass0.(i), outcome) with
      | Ok a, Ok b ->
          check "csv.domains" (String.equal (row a) (row b)) label;
          check "counts.domains" (a.Experiment.counters = b.Experiment.counters) label
      | _ -> check "csv.domains" false (label ^ ": quarantined"))
    subset again;
  (* Check: Dynamics.run reproduces the sweep's trajectory statistics, and
     a seeded sample of converged final profiles are LKEs (Prop. 2.1). In
     a traced run every trajectory of pass 0 is also replayed. *)
  let layers = Replay.empty () in
  let dyn_pair_ns = ref 0 in
  let lke =
    let converged =
      List.filter
        (fun i ->
          match pass0.(i) with
          | Ok r ->
              List.for_all
                (fun (s : Experiment.run_stats) -> s.converged)
                r.Experiment.runs
          | Error _ -> false)
        (List.init ncells Fun.id)
    in
    List.map (List.nth converged) (sample rng ~k:w.lke_samples (List.length converged))
  in
  let replayed = if trace then List.init ncells Fun.id else lke in
  List.iteri
    (fun j i ->
      match pass0.(i) with
      | Error _ -> ()
      | Ok r ->
          let cell = cells.(i) in
          let config = make_config cell in
          let s0 = make_initial ~seed:initial_seeds.(0).(i) in
          let label = Printf.sprintf "alpha=%g k=%d" cell.alpha cell.k in
          let dyn =
            if trace then
              replay_pair ~label ~flip:(j mod 2 = 1) layers dyn_pair_ns config s0
            else Dynamics.run config s0
          in
          let stats = List.hd r.Experiment.runs in
          check "dynamics.stats"
            (dyn.Dynamics.total_moves = stats.Experiment.total_moves
            && Ncg.Game.social_cost config.Dynamics.variant ~alpha:cell.alpha
                 dyn.Dynamics.final
               = Some stats.Experiment.social_cost)
            label;
          if List.mem i lke then
            check "lke.prop21"
              (Ncg.Lke.is_lke_max ~alpha:cell.alpha ~k:cell.k dyn.Dynamics.final)
              label)
    replayed;
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" (List.map row results)))
  in
  let out =
    [
      ("workload", Json.String name);
      ("passes", Json.Int passes);
      ("domains", Json.Int w.domains);
      ("traj_ms", floats traj_ms);
      ( "pass_wall_s",
        floats (Array.to_list (Array.map (fun (_, wall, _) -> sec wall) runs)) );
      ("setup_s", floats (List.rev !setup_samples));
      ("peak_rss_kb", Json.Int peak_rss_kb);
      ("csv_md5", Json.String digest);
      ("counts", counts_json (Experiment.sweep_counters results));
      ("queue_wait_ms", floats queue_wait_ms);
      ("cell_run_ms", floats cell_run_ms);
      ("busy_frac", Json.Float busy);
    ]
    @ (if trace then
         layer_json ~results ~layers ~dyn_pair_ns:!dyn_pair_ns ~major_collections
       else [])
    @ checks_json ()
  in
  print_endline (Json.to_string (Json.Obj out))

(* --- Service workload ------------------------------------------------------- *)

(* Every job is a 2x2 subgrid of this grid, n = 50 trees at 3 trials. *)
let service_alphas = [| 0.5; 1.; 2.; 5. |]
let service_ks = [| 3; 5; 7; 1000 |]

let service_spec ~seed ~alphas ~ks =
  { Sweep_spec.default with graph_class = "tree"; n = 50; trials = 3; seed; alphas; ks }

let cell_of (ai, ki) = { Experiment.alpha = service_alphas.(ai); k = service_ks.(ki) }

(* One cell of a service job, computed in-process exactly as the daemon's
   worker computes it. *)
let run_service_cell (seed, c) =
  let cell = cell_of c in
  let spec = service_spec ~seed ~alphas:[ cell.alpha ] ~ks:[ cell.k ] in
  (spec, cell, Sweep_spec.run_cell spec cell)

let hot_seeds = 2

(* Nominal closed-loop jobs per second with one worker domain on a
   2-core x86-64 box; sizes a run to about --seconds. *)
let jobs_per_s = 3.3

(* A floor on the run, for the same reason as the sweeps' min_passes. *)
let min_jobs = 72

(* Writes the store the daemon starts from (every cell of the hot seeds,
   so hot jobs are answered in full at submit) and the job plan: the exact
   request lines to send, built with the daemon's own protocol codec. *)
let service_prepare () =
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let rng = Ncg_prng.Rng.create seed in
  let jobs = max min_jobs (int_of_float (Float.round (seconds *. jobs_per_s))) in
  let fresh_seed =
    let used = Hashtbl.create 64 in
    fun () ->
      let rec draw () =
        let s = 1 + Ncg_prng.Rng.int rng (1 lsl 30) in
        if Hashtbl.mem used s then draw () else (Hashtbl.replace used s (); s)
      in
      draw ()
  in
  let hot = Array.init hot_seeds (fun _ -> fresh_seed ()) in
  (* One hot job per block of three, at a seeded slot: a third of the
     jobs read, so the job-latency median sits inside the write mode
     instead of on the gap between the two modes. *)
  let hot_slot = Array.init ((jobs + 2) / 3) (fun _ -> Ncg_prng.Rng.int rng 3) in
  (* Subgrids cost from 30 ms to 700 ms, so each kind of job walks its own
     seeded permutation of all 36 of them: every seed gets the same mix of
     cheap and dear jobs, and only the trees differ. *)
  let pairs n =
    List.concat (List.init n (fun a -> List.init (n - a - 1) (fun d -> [ a; a + d + 1 ])))
  in
  let subgrids =
    Array.of_list
      (List.concat_map
         (fun ais -> List.map (fun kis -> (ais, kis)) (pairs (Array.length service_ks)))
         (pairs (Array.length service_alphas)))
  in
  let walk () =
    let order = Array.init (Array.length subgrids) Fun.id in
    Ncg_prng.Rng.shuffle rng order;
    let next = ref 0 in
    fun () ->
      let g = subgrids.(order.(!next mod Array.length order)) in
      incr next;
      g
  in
  let next_hot = walk () and next_fresh = walk () in
  let plan =
    List.init jobs (fun j ->
        let is_hot = hot_slot.(j / 3) = j mod 3 in
        let s =
          if is_hot then hot.(Ncg_prng.Rng.int rng hot_seeds) else fresh_seed ()
        in
        let ais, kis = if is_hot then next_hot () else next_fresh () in
        (is_hot, s, ais, kis))
  in
  let all_cells =
    List.concat_map
      (fun ai -> List.init (Array.length service_ks) (fun ki -> (ai, ki)))
      (List.init (Array.length service_alphas) Fun.id)
  in
  let prefill =
    List.concat_map (fun s -> List.map (fun c -> (s, c)) all_cells) (Array.to_list hot)
  in
  let computed = Ncg_util.Parallel.map ~domains:2 run_service_cell prefill in
  let store = Ncg_store.Store.open_dir (arg "store") in
  List.iter
    (fun (spec, cell, r) ->
      Experiment.store_insert store (Sweep_spec.cache_key spec cell) r)
    computed;
  Ncg_store.Store.close store;
  let request r = Protocol.request_to_json r in
  let job_json (is_hot, s, ais, kis) =
    let spec =
      service_spec ~seed:s
        ~alphas:(List.map (fun i -> service_alphas.(i)) ais)
        ~ks:(List.map (fun i -> service_ks.(i)) kis)
    in
    Json.Obj
      [
        ("hot", Json.Bool is_hot);
        ("seed", Json.Int s);
        (* grid order = row order of the results reply *)
        ( "cells",
          Json.List
            (List.concat_map
               (fun ai ->
                 List.map (fun ki -> Json.List [ Json.Int ai; Json.Int ki ]) kis)
               ais) );
        ("submit", request (Protocol.Submit { spec; deadline_ms = None }));
      ]
  in
  Json.to_file (arg "out")
    (Json.Obj
       [
         ( "hello",
           request (Protocol.Hello { client = "perfbench"; worker = false }) );
         ("subscribe", request Protocol.Subscribe);
         ("stats", request Protocol.Stats);
         ("results", request (Protocol.Results { job = 0 }));
         ("prefilled", Json.Int (List.length prefill));
         ("jobs", Json.List (List.map job_json plan));
       ]);
  print_endline (Json.to_string (Json.Obj [ ("jobs", Json.Int jobs) ]))

(* Recomputes sampled service cells in-process: the expected CSV rows,
   and in a traced run the layer attribution of their trajectories. *)
let service_check () =
  let input =
    let ic = open_in_bin (arg "in") in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.of_string s with Ok j -> j | Error e -> failwith ("--in: " ^ e)
  in
  let trace = int_arg "trace" = 1 in
  let member name = function
    | Json.Obj fields -> (
        match List.assoc_opt name fields with
        | Some v -> v
        | None -> failwith ("missing " ^ name))
    | _ -> failwith "expected an object"
  in
  let int = function Json.Int i -> i | _ -> failwith "expected an integer" in
  let cells =
    match member "cells" input with
    | Json.List l ->
        List.map
          (fun c -> (int (member "seed" c), (int (member "ai" c), int (member "ki" c))))
          l
    | _ -> failwith "cells: expected a list"
  in
  let layers = Replay.empty () in
  let dyn_pair_ns = ref 0 in
  let gc0 = Gc.quick_stat () in
  let computed = List.map run_service_cell cells in
  let major_collections =
    (Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections
  in
  if trace then
    List.iteri
      (fun j (spec, (cell : Experiment.cell), _) ->
        let config = Sweep_spec.make_config spec cell in
        let seeds =
          Experiment.derive_seeds
            ~seed:(Sweep_spec.cell_seed spec cell)
            ~count:spec.Sweep_spec.trials
        in
        Array.iteri
          (fun t s ->
            let label =
              Printf.sprintf "seed=%d alpha=%g k=%d trial %d" spec.Sweep_spec.seed
                cell.alpha cell.k t
            in
            ignore
              (replay_pair ~label
                 ~flip:((j + t) mod 2 = 1)
                 layers dyn_pair_ns config
                 (Sweep_spec.make_initial spec ~seed:s)))
          seeds)
      computed;
  let results = List.map (fun (_, _, r) -> r) computed in
  let out =
    [
      ( "rows",
        Json.List
          (List.map
             (fun (spec, _, r) -> Json.String (Sweep_spec.csv_row spec r))
             computed) );
    ]
    @ (if trace then
         ("counts", counts_json (Experiment.sweep_counters results))
         :: layer_json ~results ~layers ~dyn_pair_ns:!dyn_pair_ns ~major_collections
       else [])
    @ checks_json ()
  in
  print_endline (Json.to_string (Json.Obj out))

let () =
  match Sys.argv with
  | [||] | [| _ |] ->
      prerr_endline
        "usage: ncg_perfbench sweep|service-prepare|service-check --key value ...";
      exit 2
  | _ -> (
      try
        match Sys.argv.(1) with
        | "sweep" -> sweep_main ()
        | "service-prepare" -> service_prepare ()
        | "service-check" -> service_check ()
        | other -> failwith (Printf.sprintf "unknown subcommand %S" other)
      with Failure msg ->
        prerr_endline ("ncg_perfbench: " ^ msg);
        exit 2)
