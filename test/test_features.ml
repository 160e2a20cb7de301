(* Tests for the per-round feature collection. *)

module Graph = Ncg_graph.Graph
module Strategy = Ncg.Strategy
module Features = Ncg.Features
module Game = Ncg.Game

let check_int = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let star n = Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n)

let test_collect_star () =
  let n = 6 in
  let s = star n in
  let g = Strategy.graph s in
  let f = Features.collect Game.Max ~alpha:2.0 ~k:2 ~round:3 ~changes:1 s g in
  check_int "round" 3 f.Features.round;
  check_int "changes" 1 f.Features.changes;
  check_int "diameter" 2 f.Features.diameter;
  check_int "max degree" (n - 1) f.Features.max_degree;
  checkf "avg degree" (2.0 *. float_of_int (n - 1) /. float_of_int n) f.Features.avg_degree;
  check_int "min bought" 0 f.Features.min_bought;
  check_int "max bought" (n - 1) f.Features.max_bought;
  checkf "avg bought" (float_of_int (n - 1) /. float_of_int n) f.Features.avg_bought;
  (* k = 2 >= diameter: everyone sees everything. *)
  check_int "min view" n f.Features.min_view;
  check_int "max view" n f.Features.max_view;
  checkf "avg view" (float_of_int n) f.Features.avg_view;
  (* Social cost: building 2*(n-1)*... alpha=2: 2*5 + usage (1 + 2*5). *)
  checkf "social cost" (10.0 +. 11.0) f.Features.social_cost

let test_collect_path_views () =
  (* Path 0-1-2-3-4 with k=1: end vertices see 2, interior see 3. *)
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let g = Strategy.graph s in
  let f = Features.collect Game.Max ~alpha:1.0 ~k:1 ~round:1 ~changes:0 s g in
  check_int "min view" 2 f.Features.min_view;
  check_int "max view" 3 f.Features.max_view;
  checkf "avg view" ((2.0 +. 3.0 +. 3.0 +. 3.0 +. 2.0) /. 5.0) f.Features.avg_view;
  check_int "diameter" 4 f.Features.diameter

let test_disconnected_markers () =
  let s = Strategy.of_buys ~n:4 [ (0, 1); (2, 3) ] in
  let g = Strategy.graph s in
  let f = Features.collect Game.Sum ~alpha:1.0 ~k:2 ~round:1 ~changes:0 s g in
  check_int "diameter marker" (-1) f.Features.diameter;
  Alcotest.(check bool) "nan social cost" true (Float.is_nan f.Features.social_cost)

let test_view_sizes () =
  let s = Strategy.of_buys ~n:8 (List.init 8 (fun u -> (u, (u + 1) mod 8))) in
  let summary = Features.summarize Game.Max ~alpha:1.0 ~k:2 s (Strategy.graph s) in
  Array.iter (fun s -> check_int "cycle view" 5 s) summary.Features.views

let test_csv_roundtrip_fields () =
  let s = star 5 in
  let g = Strategy.graph s in
  let f = Features.collect Game.Max ~alpha:1.0 ~k:2 ~round:2 ~changes:3 s g in
  let row = Features.to_csv_row f in
  let fields = String.split_on_char ',' row in
  check_int "field count"
    (List.length (String.split_on_char ',' Features.csv_header))
    (List.length fields);
  Alcotest.(check string) "round field" "2" (List.nth fields 0);
  Alcotest.(check string) "changes field" "3" (List.nth fields 1)

let prop_feature_invariants =
  QCheck.Test.make ~name:"feature invariants on random configurations" ~count:100
    QCheck.(triple (int_range 2 25) (int_range 1 4) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let rng = Ncg_prng.Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let f = Features.collect Game.Max ~alpha:1.0 ~k ~round:1 ~changes:0 s
          (Strategy.graph s)
      in
      f.Features.min_bought <= f.Features.max_bought
      && f.Features.avg_bought >= float_of_int f.Features.min_bought
      && f.Features.avg_bought <= float_of_int f.Features.max_bought
      && f.Features.min_view >= 1
      && f.Features.max_view <= n
      && f.Features.avg_view >= float_of_int f.Features.min_view
      && f.Features.avg_view <= float_of_int f.Features.max_view
      && f.Features.diameter >= 0
      && f.Features.max_degree >= 1)

let () =
  Alcotest.run "features"
    [
      ( "collect",
        [
          Alcotest.test_case "star" `Quick test_collect_star;
          Alcotest.test_case "path views" `Quick test_collect_path_views;
          Alcotest.test_case "disconnected" `Quick test_disconnected_markers;
          Alcotest.test_case "view sizes" `Quick test_view_sizes;
          Alcotest.test_case "csv fields" `Quick test_csv_roundtrip_fields;
          QCheck_alcotest.to_alcotest prop_feature_invariants;
        ] );
    ]
