(* Bench perf-regression gate.

   Diffs fresh instrumented-bench outputs (BENCH_experiment.json,
   BENCH_fullgrid.json) against the committed bench/BASELINE.json:

     dune exec bin/ncg_bench_diff.exe -- --baseline bench/BASELINE.json \
       experiment=BENCH_experiment.json fullgrid=BENCH_fullgrid.json

   Per cell (matched on alpha and k) it hard-fails when GC allocated
   words grew beyond --tolerance (default 1%) or when any counter in the
   baseline snapshot increased — both are deterministic functions of the
   cell under the engine's parallel==sequential contract, so any growth
   is a real hot-path regression, not noise. Wall-clock only warns
   (runner-dependent). Improvements (fewer words / smaller counters)
   also warn, as a nudge to re-baseline and lock them in.

   Re-baseline (after an intentional engine change):

     dune exec bin/ncg_bench_diff.exe -- --write-baseline bench/BASELINE.json \
       experiment=BENCH_experiment.json fullgrid=BENCH_fullgrid.json

   Exit codes: 0 clean (warnings allowed), 1 regression, 2 bad usage or
   unreadable/ill-formed input. *)

module Json = Ncg_obs.Json

let baseline_schema = Ncg_obs.Schema.bench_baseline

exception Bad_input of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad_input s)) fmt

let read_json path =
  match Json.of_file path with Ok j -> j | Error e -> failf "%s: %s" path e

let number path = function
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> failf "%s: expected a number" path

(* One bench cell reduced to what the gate compares. *)
type cell = {
  alpha : float;
  k : int;
  allocated_words : float;
  wall_seconds : float;
  counters : (string * float) list;
}

let cell_of_json file j =
  let ctx = Printf.sprintf "%s: cell" file in
  let counters =
    match Json.member "counters" j with
    | Some (Json.Obj fields) ->
        List.map (fun (name, v) -> (name, number (ctx ^ "." ^ name) (Some v))) fields
    | _ -> failf "%s: missing counters" ctx
  in
  {
    alpha = number (ctx ^ ".alpha") (Json.member "alpha" j);
    k = int_of_float (number (ctx ^ ".k") (Json.member "k" j));
    allocated_words =
      (* Bench outputs nest it under "gc"; the baseline stores it flat. *)
      (match Json.member "allocated_words" j with
      | Some _ as flat -> number (ctx ^ ".allocated_words") flat
      | None ->
          number (ctx ^ ".gc.allocated_words")
            (Option.bind (Json.member "gc" j) (Json.member "allocated_words")));
    wall_seconds =
      number (ctx ^ ".wall_seconds") (Json.member "wall_seconds" j);
    counters;
  }

let cells_of_bench file j =
  match Json.member "cells" j with
  | Some (Json.List cells) -> List.map (cell_of_json file) cells
  | _ -> failf "%s: missing cells list" file

(* SECTION=FILE positional arguments. *)
let parse_spec spec =
  match String.index_opt spec '=' with
  | Some i when i > 0 ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
  | _ -> failf "bad section spec %S (expected SECTION=FILE)" spec

let cell_key c = Printf.sprintf "alpha=%g k=%d" c.alpha c.k

let diff_section ~tolerance ~wall_tolerance ~fails ~warns name baseline fresh =
  let tag kind fmt =
    Printf.ksprintf
      (fun s ->
        let line = Printf.sprintf "%s [%s] %s" kind name s in
        print_endline line;
        match kind with
        | "FAIL" -> incr fails
        | _ -> incr warns)
      fmt
  in
  List.iter
    (fun (b : cell) ->
      match
        List.find_opt (fun f -> f.alpha = b.alpha && f.k = b.k) fresh
      with
      | None -> tag "FAIL" "%s: cell missing from fresh bench output" (cell_key b)
      | Some f ->
          if f.allocated_words > b.allocated_words *. (1. +. tolerance) then
            tag "FAIL" "%s: allocated words %.4g -> %.4g (+%.1f%%, tolerance %.1f%%)"
              (cell_key b) b.allocated_words f.allocated_words
              (100. *. ((f.allocated_words /. b.allocated_words) -. 1.))
              (100. *. tolerance)
          else if f.allocated_words < b.allocated_words *. (1. -. tolerance) then
            tag "WARN" "%s: allocated words improved %.4g -> %.4g; re-baseline to lock in"
              (cell_key b) b.allocated_words f.allocated_words;
          List.iter
            (fun (counter, bv) ->
              match List.assoc_opt counter f.counters with
              | None ->
                  tag "FAIL" "%s: counter %s missing from fresh output" (cell_key b)
                    counter
              | Some fv ->
                  if fv > bv then
                    tag "FAIL" "%s: counter %s %.0f -> %.0f" (cell_key b) counter bv fv
                  else if fv < bv then
                    tag "WARN" "%s: counter %s improved %.0f -> %.0f; re-baseline"
                      (cell_key b) counter bv fv)
            b.counters;
          if f.wall_seconds > b.wall_seconds *. (1. +. wall_tolerance) then
            tag "WARN" "%s: wall %.3fs -> %.3fs (runner-dependent, not gated)"
              (cell_key b) b.wall_seconds f.wall_seconds)
    baseline;
  List.iter
    (fun (f : cell) ->
      if not (List.exists (fun b -> b.alpha = f.alpha && b.k = f.k) baseline) then
        tag "WARN" "%s: new cell not in baseline; re-baseline to start gating it"
          (cell_key f))
    fresh

let cell_to_baseline_json (c : cell) =
  Json.Obj
    [
      ("alpha", Json.Float c.alpha);
      ("k", Json.Int c.k);
      ("allocated_words", Json.Float c.allocated_words);
      ("wall_seconds", Json.Float c.wall_seconds);
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) c.counters) );
    ]

let baseline_cells file section j =
  match Option.bind (Json.member "sections" j) (Json.member section) with
  | Some sec -> (
      match Json.member "cells" sec with
      | Some (Json.List cells) -> List.map (cell_of_json file) cells
      | _ -> failf "%s: section %s has no cells" file section)
  | None -> failf "%s: no baseline for section %s (re-baseline?)" file section

(* --- Run-history trend (bench/main.exe appends BENCH_history.jsonl) ------- *)

let history_schema = Ncg_obs.Schema.bench_history

let read_lines path =
  let ic = try open_in path with Sys_error e -> failf "%s" e in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Unparseable lines (torn tails from a crashed appender) are skipped, not
   fatal; only a history with zero valid lines is an error. *)
let history_runs path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match Json.of_string line with
        | Error _ -> None
        | Ok j -> (
            match (Json.member "schema" j, Json.member "sections" j) with
            | Some (Json.String s), Some (Json.Obj fields) when s = history_schema
              ->
                Some
                  (List.filter_map
                     (fun (name, v) ->
                       match v with
                       | Json.Float f -> Some (name, f)
                       | Json.Int i -> Some (name, float_of_int i)
                       | _ -> None)
                     fields)
            | _ -> None))
    (read_lines path)

let print_history path =
  let runs = history_runs path in
  if runs = [] then failf "%s: no valid %s lines" path history_schema;
  (* Ordered union of section names across all runs. *)
  let sections =
    List.fold_left
      (fun acc run ->
        List.fold_left
          (fun acc (name, _) -> if List.mem name acc then acc else acc @ [ name ])
          acc run)
      [] runs
  in
  Printf.printf "%d run(s) in %s (oldest first, wall seconds)\n" (List.length runs)
    path;
  List.iter
    (fun name ->
      let walls = List.filter_map (List.assoc_opt name) runs in
      match walls with
      | [] -> ()
      | first :: _ ->
          let last = List.nth walls (List.length walls - 1) in
          let trend =
            if List.length walls < 2 || first = 0.0 then ""
            else Printf.sprintf "  (%+.1f%% vs first)" (100. *. ((last /. first) -. 1.))
          in
          Printf.printf "  %-14s %s%s\n" name
            (String.concat " " (List.map (Printf.sprintf "%.2f") walls))
            trend)
    sections

let run baseline_path write_path history_path tolerance wall_tolerance specs =
  try
    match history_path with
    | Some path ->
        print_history path;
        0
    | None ->
    let sections =
      List.map
        (fun spec ->
          let name, file = parse_spec spec in
          (name, cells_of_bench file (read_json file)))
        specs
    in
    if sections = [] then failf "no SECTION=FILE arguments given";
    match write_path with
    | Some baseline_path ->
      Json.to_file baseline_path
        (Json.Obj
           [
             ("schema", Json.String baseline_schema);
             ( "sections",
               Json.Obj
                 (List.map
                    (fun (name, cells) ->
                      ( name,
                        Json.Obj
                          [
                            ("cells", Json.List (List.map cell_to_baseline_json cells));
                          ] ))
                    sections) );
           ]);
      Printf.printf "wrote %s (%s)\n" baseline_path
        (String.concat ", "
           (List.map
              (fun (name, cells) ->
                Printf.sprintf "%s: %d cells" name (List.length cells))
              sections));
      0
    | None ->
      let baseline_path =
        match baseline_path with
        | Some p -> p
        | None -> failf "one of --baseline or --write-baseline is required"
      in
      let bj = read_json baseline_path in
      (match Json.member "schema" bj with
      | Some (Json.String s) when s = baseline_schema -> ()
      | Some (Json.String s) -> failf "%s: unknown schema %S" baseline_path s
      | _ -> failf "%s: missing schema" baseline_path);
      let fails = ref 0 and warns = ref 0 in
      List.iter
        (fun (name, fresh) ->
          let base = baseline_cells baseline_path name bj in
          diff_section ~tolerance ~wall_tolerance ~fails ~warns name base fresh;
          Printf.printf "section %s: %d baseline cells checked\n" name
            (List.length base))
        sections;
      if !fails > 0 then begin
        Printf.printf "bench gate: %d regression(s), %d warning(s)\n" !fails !warns;
        1
      end
      else begin
        Printf.printf "bench gate: clean (%d warning(s))\n" !warns;
        0
      end
  with Bad_input msg ->
    prerr_endline ("ncg_bench_diff: " ^ msg);
    2

open Cmdliner

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:"Committed baseline to diff against (bench/BASELINE.json).")

let write_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:
          "Regenerate the baseline at $(docv) from the given bench outputs \
           instead of diffing.")

let history_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"FILE"
        ~doc:
          "Print the per-section wall-time trend from a BENCH_history.jsonl \
           appended by bench/main.exe (schema ncg.bench.history/1), then exit. \
           Unparseable lines are skipped.")

let tolerance_arg =
  Arg.(
    value & opt float 0.01
    & info [ "tolerance" ] ~docv:"FRAC"
        ~doc:"Allocated-words growth that hard-fails (fraction, default 1%).")

let wall_tolerance_arg =
  Arg.(
    value & opt float 0.25
    & info [ "wall-tolerance" ] ~docv:"FRAC"
        ~doc:"Wall-clock growth that warns (fraction, default 25%).")

let specs_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SECTION=FILE"
        ~doc:"Bench section name and its fresh JSON output.")

let cmd =
  let doc = "diff bench telemetry against the committed perf baseline" in
  Cmd.v
    (Cmd.info "ncg_bench_diff" ~doc)
    Term.(
      const run $ baseline_arg $ write_arg $ history_arg $ tolerance_arg
      $ wall_tolerance_arg $ specs_arg)

let () = exit (Cmd.eval' cmd)
