(* Tests for the domain-based parallel map. *)

module Parallel = Ncg_util.Parallel

let check_int_list = Alcotest.(check (list int))

let test_matches_sequential () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun domains ->
      check_int_list
        (Printf.sprintf "domains=%d" domains)
        (List.map (fun x -> x * x) xs)
        (Parallel.map ~domains (fun x -> x * x) xs))
    [ 1; 2; 3; 4; 7 ]

let test_order_preserved () =
  (* Results must come back in input order even with many chunks. *)
  let xs = List.init 50 (fun i -> 50 - i) in
  check_int_list "order" xs (Parallel.map ~domains:8 Fun.id xs)

let test_empty_and_singleton () =
  check_int_list "empty" [] (Parallel.map ~domains:4 Fun.id []);
  check_int_list "singleton" [ 42 ] (Parallel.map ~domains:4 Fun.id [ 42 ])

let test_more_domains_than_items () =
  check_int_list "n < domains" [ 2; 4; 6 ]
    (Parallel.map ~domains:16 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_exception_propagates () =
  Alcotest.check_raises "raises" Exit (fun () ->
      ignore (Parallel.map ~domains:3 (fun x -> if x = 7 then raise Exit else x)
                (List.init 10 Fun.id)))

exception Chunk of int

let test_exception_original_from_spawned_domain () =
  (* Item 9 lives in the last of 4 chunks over 0..11, i.e. a spawned
     domain (chunk 0 runs in the caller) — the original exception, with
     its payload, must cross the join. *)
  Alcotest.check_raises "payload crosses domains" (Chunk 9) (fun () ->
      ignore
        (Parallel.map ~domains:4
           (fun x -> if x = 9 then raise (Chunk x) else x)
           (List.init 12 Fun.id)))

let test_exception_joins_all_domains_first () =
  (* A failure in the caller's own chunk must not abandon the spawned
     domains: every element outside the failing chunk is still processed
     exactly once before the exception is re-raised. With 4 domains over
     0..11, chunk 0 is {0,1,2}; raising at 0 leaves 9 elements. *)
  let processed = Atomic.make 0 in
  Alcotest.check_raises "chunk 0 fails" (Chunk 0) (fun () ->
      ignore
        (Parallel.map ~domains:4
           (fun x ->
             if x = 0 then raise (Chunk 0) else Atomic.incr processed;
             x)
           (List.init 12 Fun.id)));
  Alcotest.(check int) "other chunks ran to completion" 9 (Atomic.get processed)

let test_exception_deterministic_choice () =
  (* When several chunks raise, the lowest-numbered chunk wins — every
     time, regardless of domain scheduling. Chunks over 0..11 with 4
     domains are {0..2}, {3..5}, {6..8}, {9..11}; chunks 1-3 all raise,
     tagged by chunk index, and chunk 1's exception must surface. *)
  for _ = 1 to 20 do
    Alcotest.check_raises "lowest chunk's exception" (Chunk 1) (fun () ->
        ignore
          (Parallel.map ~domains:4
             (fun x -> if x >= 3 then raise (Chunk (x / 3)) else x)
             (List.init 12 Fun.id)))
  done

let test_default_domains () =
  (* Must work without specifying domains (single-core containers give
     recommended_domain_count = 1, multicore machines more). *)
  check_int_list "default" [ 1; 2; 3 ] (Parallel.map Fun.id [ 1; 2; 3 ])

let prop_equivalence =
  QCheck.Test.make ~name:"parallel map == sequential map" ~count:100
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (domains, xs) ->
      Parallel.map ~domains (fun x -> x + 1) xs = List.map (fun x -> x + 1) xs)

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick test_matches_sequential;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "empty/singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "more domains than items" `Quick test_more_domains_than_items;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "exception from spawned domain" `Quick
            test_exception_original_from_spawned_domain;
          Alcotest.test_case "joins all before re-raise" `Quick
            test_exception_joins_all_domains_first;
          Alcotest.test_case "deterministic exception choice" `Quick
            test_exception_deterministic_choice;
          Alcotest.test_case "default domains" `Quick test_default_domains;
          QCheck_alcotest.to_alcotest prop_equivalence;
        ] );
    ]
