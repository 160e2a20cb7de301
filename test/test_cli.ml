(* The command-line surface of the bin/ tools, driven as subprocesses:

   - every tool (and subcommand) renders --help=plain, which fails if
     two composed terms declare the same flag;
   - bad input is a cmdliner usage error (exit 124), never an uncaught
     exception (exit 125);
   - the diagnostics that exit 2 keep their exact text;
   - a sweep served by ncg_served and collected by ncg_submit is
     byte-identical to the one-shot `ncg_experiment --by-cell-seeds` run
     over the same flags — both tools read them through one term.

   The daemon is stopped with SIGTERM rather than --drain: --drain only
   notices a job that is still running at one of its ticks, so a job
   this small may finish unseen (no exit) or be drained between the
   client's last status poll and its results request. *)

let exe tool =
  Filename.concat (Filename.concat Filename.parent_dir_name "bin") (tool ^ ".exe")

let tools =
  [
    "ncg_sim"; "ncg_experiment"; "ncg_bounds"; "ncg_certify"; "ncg_report";
    "ncg_trace"; "ncg_lint"; "ncg_bench_diff"; "ncg_top"; "ncg_served";
    "ncg_submit";
  ]

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_cli_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let spawn tool args ~stdout ~stderr =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      Unix.create_process (exe tool)
        (Array.of_list (exe tool :: args))
        null stdout stderr)

let exit_code pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

let create path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600

type outcome = { code : int; out : string; err : string }

(* Runs a tool to completion with stdout and stderr captured in files. *)
let run tool args =
  with_temp_dir (fun dir ->
      let out_path = Filename.concat dir "out" in
      let err_path = Filename.concat dir "err" in
      let out_fd = create out_path and err_fd = create err_path in
      let pid = spawn tool args ~stdout:out_fd ~stderr:err_fd in
      Unix.close out_fd;
      Unix.close err_fd;
      let code = exit_code pid in
      let read p = In_channel.with_open_bin p In_channel.input_all in
      { code; out = read out_path; err = read err_path })

let show tool args = String.concat " " (tool :: args)

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let test_help () =
  let commands =
    List.map (fun t -> (t, [])) tools
    @ List.map (fun s -> ("ncg_trace", [ s ])) [ "record"; "verify" ]
    @ List.map
        (fun s -> ("ncg_certify", [ s ]))
        [ "cycle"; "pg"; "torus-max"; "torus-sum" ]
  in
  List.iter
    (fun (tool, sub) ->
      let args = sub @ [ "--help=plain" ] in
      let r = run tool args in
      Alcotest.(check int) (show tool args) 0 r.code;
      Alcotest.(check bool) (show tool args ^ " output") true (r.out <> ""))
    commands

let test_usage_errors () =
  List.iter
    (fun (tool, args) ->
      let r = run tool args in
      Alcotest.(check int) (show tool args ^ " exit") 124 r.code;
      Alcotest.(check bool)
        (show tool args ^ " shows usage")
        true
        (String.starts_with ~prefix:(tool ^ ": ") r.err
        && not (contains ~sub:"internal error" r.err)))
    [
      ("ncg_sim", [ "--class"; "bogus" ]);
      ("ncg_sim", [ "--variant"; "bogus" ]);
      ("ncg_sim", [ "--solver"; "bogus" ]);
      ("ncg_report", [ "--class"; "bogus" ]);
      ("ncg_trace", [ "record"; "--class"; "bogus"; "--prefix"; "unused" ]);
      ("ncg_bounds", [ "--game"; "bogus" ]);
      ("ncg_certify", [ "torus-sum"; "-k"; "3" ]);
    ]

(* The single-run tools share one class set: none lost a class. *)
let test_world_classes () =
  with_temp_dir (fun dir ->
      List.iter
        (fun (tool, args) ->
          let r = run tool args in
          Alcotest.(check int) (show tool args) 0 r.code)
        [
          ("ncg_sim", [ "--class"; "ba"; "-n"; "10"; "-q" ]);
          ("ncg_report", [ "--class"; "cycle"; "-n"; "8" ]);
          ( "ncg_trace",
            [ "record"; "--class"; "star"; "-n"; "8"; "--prefix";
              Filename.concat dir "run" ] );
        ])

let test_exit_2_diagnostics () =
  List.iter
    (fun (tool, args, line) ->
      let r = run tool args in
      Alcotest.(check int) (show tool args ^ " exit") 2 r.code;
      Alcotest.(check string) (show tool args ^ " stderr") (line ^ "\n") r.err)
    [
      ( "ncg_experiment", [ "--class"; "bogus" ],
        {|ncg_experiment: unknown graph class "bogus"|} );
      ( "ncg_experiment", [ "--resume" ],
        "ncg_experiment: --resume requires --store DIR" );
      ( "ncg_served", [ "--fault-plan"; "zz" ],
        {|ncg_served: --fault-plan: "zz": expected SITE=ACTION[@TRIGGER]|} );
      ( "ncg_submit", [ "--connect"; "bogus:x" ],
        {|ncg_submit: unknown address scheme "bogus" (use unix: or tcp:)|} );
    ]

(* Polls until the daemon accepts connections; false if it exited or
   never came up. *)
let rec await_listening addr pid tries =
  match Ncg_service.Protocol.connect addr with
  | _, oc ->
      close_out oc;
      true
  | exception Unix.Unix_error _ ->
      if tries = 0 || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then false
      else begin
        Unix.sleepf 0.005;
        await_listening addr pid (tries - 1)
      end

let test_served_matches_one_shot () =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "ncg.sock" in
      let addr = "unix:" ^ sock in
      let log = create (Filename.concat dir "served.log") in
      let daemon =
        spawn "ncg_served"
          [ "--listen"; addr; "--store"; Filename.concat dir "store"; "--quiet";
            "--tick-ms"; "20" ]
          ~stdout:log ~stderr:log
      in
      Unix.close log;
      let reaped = ref false in
      Fun.protect
        ~finally:(fun () ->
          if not !reaped then begin
            Unix.kill daemon Sys.sigkill;
            ignore (Unix.waitpid [] daemon)
          end)
        (fun () ->
          Alcotest.(check bool)
            "daemon listening" true
            (await_listening (Ncg_service.Protocol.Unix_sock sock) daemon 2000);
          let grid =
            [ "--class"; "tree"; "-n"; "12"; "--alphas"; "0.5,2";
              "--ks"; "2,1000"; "--trials"; "2"; "--seed"; "7" ]
          in
          let served =
            run "ncg_submit"
              ([ "--connect"; addr; "--quiet"; "--poll-ms"; "10" ] @ grid)
          in
          Alcotest.(check int) "ncg_submit exit" 0 served.code;
          Unix.kill daemon Sys.sigterm;
          let daemon_code = exit_code daemon in
          reaped := true;
          Alcotest.(check int) "daemon exit on SIGTERM" 0 daemon_code;
          let one_shot =
            run "ncg_experiment" (grid @ [ "--by-cell-seeds"; "--quiet" ])
          in
          Alcotest.(check int) "ncg_experiment exit" 0 one_shot.code;
          Alcotest.(check int) "header + 4 rows" 5
            (List.length (String.split_on_char '\n' (String.trim served.out)));
          Alcotest.(check string)
            "served CSV = one-shot CSV" one_shot.out served.out))

(* A stored sweep SIGKILLed once its first cell is durably in the log
   resumes, at a different --domains, to the uninterrupted CSV, and at
   least one cell comes from the store; a third run is all hits. *)
let test_resume_after_kill () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      let sweep =
        [ "--class"; "tree"; "-n"; "30"; "--alphas"; "0.5,1,2";
          "--ks"; "2,3,1000"; "--trials"; "8"; "--seed"; "2014"; "--quiet" ]
      in
      let stored domains =
        sweep @ [ "--domains"; domains; "--store"; store ]
      in
      let uninterrupted = run "ncg_experiment" (sweep @ [ "--domains"; "2" ]) in
      Alcotest.(check int) "uninterrupted exit" 0 uninterrupted.code;
      let partial = create (Filename.concat dir "partial.csv") in
      let pid =
        spawn "ncg_experiment" (stored "1") ~stdout:partial ~stderr:partial
      in
      Unix.close partial;
      let log_size () =
        match Unix.stat (Filename.concat store "records.log") with
        | st -> st.Unix.st_size
        | exception Unix.Unix_error _ -> 0
      in
      let rec await_first_cell tries =
        if log_size () <= 8 && tries > 0 then begin
          Unix.sleepf 0.001;
          await_first_cell (tries - 1)
        end
      in
      await_first_cell 10_000;
      Unix.kill pid Sys.sigkill;
      Alcotest.(check int) "killed mid-sweep" (-1) (exit_code pid);
      Alcotest.(check bool) "a cell was stored" true (log_size () > 8);
      let hits r =
        Scanf.sscanf
          (List.find
             (String.starts_with ~prefix:"store ")
             (String.split_on_char '\n' r.err))
          "store %_s %d hit" Fun.id
      in
      let resumed = run "ncg_experiment" (stored "4" @ [ "--resume" ]) in
      Alcotest.(check int) "resume exit" 0 resumed.code;
      Alcotest.(check string) "resumed CSV" uninterrupted.out resumed.out;
      Alcotest.(check bool) "resume hits the store" true (hits resumed >= 1);
      let cached = run "ncg_experiment" (stored "2" @ [ "--resume" ]) in
      Alcotest.(check string) "cached CSV" uninterrupted.out cached.out;
      Alcotest.(check int) "all hits" 9 (hits cached))

let () =
  Alcotest.run "cli"
    [
      ( "surface",
        [
          Alcotest.test_case "every tool renders --help" `Quick test_help;
          Alcotest.test_case "bad input is a usage error" `Quick test_usage_errors;
          Alcotest.test_case "single-run tools share the class set" `Quick
            test_world_classes;
          Alcotest.test_case "exit-2 diagnostics unchanged" `Quick
            test_exit_2_diagnostics;
        ] );
      ( "service",
        [
          Alcotest.test_case "served sweep = one-shot --by-cell-seeds" `Quick
            test_served_matches_one_shot;
        ] );
      ( "store",
        [
          Alcotest.test_case "resume after SIGKILL = uninterrupted" `Quick
            test_resume_after_kill;
        ] );
    ]
