module Json = Ncg_obs.Json

type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Ok (Unix_sock s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "unix" ->
          if rest = "" then Error "unix: address needs a path"
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error "tcp: address needs HOST:PORT"
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
              | _ -> Error (Printf.sprintf "tcp: bad port %S" port)))
      | _ ->
          (* a bare relative path containing ':' is ambiguous; insist on
             an explicit scheme there *)
          Error (Printf.sprintf "unknown address scheme %S (use unix: or tcp:)" kind))

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type request =
  | Hello of { client : string; worker : bool }
  | Submit of { spec : Ncg.Sweep_spec.t; deadline_ms : int option }
  | Status of { job : int }
  | Results of { job : int }
  | Lease of { worker : string }
  | Complete of { worker : string; task : int; result : Json.t }
  | Fail of { worker : string; task : int; error : string }
  | Ping of { worker : string }
  | Cancel of { job : int }
  | Subscribe
  | Stats

let request_schema = Ncg_obs.Schema.service_request
let request_schema_v1 = Ncg_obs.Schema.service_request_v1
let response_schema = Ncg_obs.Schema.service_response

let request_to_json r =
  let fields =
    match r with
    | Hello { client; worker } ->
        [ ("verb", Json.String "hello"); ("client", Json.String client) ]
        @ if worker then [ ("worker", Json.Bool true) ] else []
    | Submit { spec; deadline_ms } ->
        [ ("verb", Json.String "submit"); ("spec", Ncg.Sweep_spec.to_json spec) ]
        @ (match deadline_ms with
          | None -> []
          | Some ms -> [ ("deadline_ms", Json.Int ms) ])
    | Status { job } -> [ ("verb", Json.String "status"); ("job", Json.Int job) ]
    | Results { job } ->
        [ ("verb", Json.String "results"); ("job", Json.Int job) ]
    | Lease { worker } ->
        [ ("verb", Json.String "lease"); ("worker", Json.String worker) ]
    | Complete { worker; task; result } ->
        [
          ("verb", Json.String "complete");
          ("worker", Json.String worker);
          ("task", Json.Int task);
          ("result", result);
        ]
    | Fail { worker; task; error } ->
        [
          ("verb", Json.String "fail");
          ("worker", Json.String worker);
          ("task", Json.Int task);
          ("error", Json.String error);
        ]
    | Ping { worker } ->
        [ ("verb", Json.String "ping"); ("worker", Json.String worker) ]
    | Cancel { job } -> [ ("verb", Json.String "cancel"); ("job", Json.Int job) ]
    | Subscribe -> [ ("verb", Json.String "subscribe") ]
    | Stats -> [ ("verb", Json.String "stats") ]
  in
  Json.Obj (("schema", Json.String request_schema) :: fields)

let str_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "request: missing string field %S" name)

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "request: missing integer field %S" name)

let request_of_json j =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String s)
      when String.equal s request_schema || String.equal s request_schema_v1 ->
        (* v1 requests are a strict subset: same encodings, fewer
           verbs — PR 8 clients and workers keep working unchanged. *)
        Ok ()
    | Some (Json.String s) ->
        Error (Printf.sprintf "request: unsupported schema %S" s)
    | _ -> Error "request: missing schema"
  in
  let* verb = str_field "verb" j in
  match verb with
  | "hello" ->
      let* client = str_field "client" j in
      let worker =
        match Json.member "worker" j with Some (Json.Bool b) -> b | _ -> false
      in
      Ok (Hello { client; worker })
  | "submit" ->
      let* spec_json =
        match Json.member "spec" j with
        | Some s -> Ok s
        | None -> Error "request: submit needs \"spec\""
      in
      let* spec = Ncg.Sweep_spec.of_json spec_json in
      let* deadline_ms =
        match Json.member "deadline_ms" j with
        | None -> Ok None
        | Some (Json.Int ms) when ms > 0 -> Ok (Some ms)
        | Some _ -> Error "request: \"deadline_ms\" must be a positive integer"
      in
      Ok (Submit { spec; deadline_ms })
  | "status" ->
      let* job = int_field "job" j in
      Ok (Status { job })
  | "results" ->
      let* job = int_field "job" j in
      Ok (Results { job })
  | "lease" ->
      let* worker = str_field "worker" j in
      Ok (Lease { worker })
  | "complete" ->
      let* worker = str_field "worker" j in
      let* task = int_field "task" j in
      let* result =
        match Json.member "result" j with
        | Some r -> Ok r
        | None -> Error "request: complete needs \"result\""
      in
      Ok (Complete { worker; task; result })
  | "fail" ->
      let* worker = str_field "worker" j in
      let* task = int_field "task" j in
      let* error = str_field "error" j in
      Ok (Fail { worker; task; error })
  | "ping" ->
      let* worker = str_field "worker" j in
      Ok (Ping { worker })
  | "cancel" ->
      let* job = int_field "job" j in
      Ok (Cancel { job })
  | "subscribe" -> Ok Subscribe
  | "stats" -> Ok Stats
  | other -> Error (Printf.sprintf "request: unknown verb %S" other)

type response =
  | Resp_ok of (string * Json.t) list
  | Resp_error of string

let response_to_json = function
  | Resp_ok fields ->
      Json.Obj
        (("schema", Json.String response_schema) :: ("ok", Json.Bool true)
        :: fields)
  | Resp_error msg ->
      Json.Obj
        [
          ("schema", Json.String response_schema);
          ("ok", Json.Bool false);
          ("error", Json.String msg);
        ]

let response_of_json j =
  match (Json.member "schema" j, Json.member "ok" j) with
  | Some (Json.String s), _ when not (String.equal s response_schema) ->
      Error (Printf.sprintf "response: unsupported schema %S" s)
  | Some (Json.String _), Some (Json.Bool true) -> (
      match j with
      | Json.Obj fields ->
          Ok
            (Resp_ok
               (List.filter
                  (fun (name, _) ->
                    not (String.equal name "schema" || String.equal name "ok"))
                  fields))
      | _ -> Error "response: not an object")
  | Some (Json.String _), Some (Json.Bool false) -> (
      match Json.member "error" j with
      | Some (Json.String msg) -> Ok (Resp_error msg)
      | _ -> Error "response: missing \"error\"")
  | _ -> Error "response: missing schema or \"ok\""

let cell_fields spec (cell : Ncg.Experiment.cell) =
  [
    ("spec", Ncg.Sweep_spec.to_json spec);
    ("alpha", Json.Float cell.Ncg.Experiment.alpha);
    ("k", Json.Int cell.Ncg.Experiment.k);
  ]

let cell_of_json j =
  let ( let* ) = Result.bind in
  let* spec =
    match Json.member "spec" j with
    | Some s -> Ncg.Sweep_spec.of_json s
    | None -> Error "task: missing \"spec\""
  in
  let* alpha =
    match Json.member "alpha" j with
    | Some (Json.Float a) -> Ok a
    | Some (Json.Int a) -> Ok (float_of_int a)
    | _ -> Error "task: missing number field \"alpha\""
  in
  match Json.member "k" j with
  | Some (Json.Int k) -> Ok (spec, { Ncg.Experiment.alpha; k })
  | _ -> Error "task: missing integer field \"k\""

type task = {
  id : int;
  spec : Ncg.Sweep_spec.t;
  cell : Ncg.Experiment.cell;
  attempts : int;
}

let task_to_json t =
  Json.Obj
    ((("id", Json.Int t.id) :: cell_fields t.spec t.cell)
    @ [ ("attempts", Json.Int t.attempts) ])

let task_of_json j =
  let ( let* ) = Result.bind in
  let* spec, cell = cell_of_json j in
  match (Json.member "id" j, Json.member "attempts" j) with
  | Some (Json.Int id), Some (Json.Int attempts) ->
      Ok { id; spec; cell; attempts }
  | _ -> Error "task: missing integer field \"id\" or \"attempts\""

let send_line oc json =
  output_string oc (Json.to_string json);
  output_char oc '\n';
  flush oc

let recv_line ic =
  match input_line ic with
  | exception End_of_file -> Ok None
  | line -> (
      match Json.of_string line with
      | Ok j -> Ok (Some j)
      | Error msg -> Error (Printf.sprintf "bad line: %s" msg))

let call ic oc req =
  send_line oc (request_to_json req);
  match recv_line ic with
  | Ok None -> Ok None
  | Error msg -> Error msg
  | Ok (Some j) -> (
      match response_of_json j with
      | Ok r -> Ok (Some r)
      | Error msg -> Error ("bad response: " ^ msg))

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "getaddrinfo", host)))
      in
      Unix.ADDR_INET (ip, port)

let connect addr =
  let domain =
    match addr with
    | Unix_sock _ -> Unix.PF_UNIX
    | Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
