(** Wire protocol of the sweep service: newline-delimited JSON.

    Every request is one compact JSON line tagged
    ["schema": "ncg.service.request/1"], every reply one line tagged
    ["ncg.service.response/1"]. A connection is a sequence of
    request/response pairs — except after a successful {!Subscribe},
    when the server stops reading and streams raw
    {!Ncg_obs.Events}-format JSONL lines until the client disconnects
    ([ncg_top --events unix:PATH] consumes this stream directly).

    The same protocol serves sweep clients ([ncg_submit]: {!Hello},
    {!Submit}, {!Status}, {!Results}, {!Cancel}) and worker processes
    ([ncg_served --worker]: {!Lease}, {!Complete}, {!Fail}, {!Ping});
    the daemon treats a dropped worker connection as a crash and
    requeues its leased cells, and a heartbeat-silent worker the same
    way even when its connection looks alive.

    Schema is ["ncg.service.request/2"]; servers also accept
    ["/1"] requests (a strict subset — same encodings, fewer verbs), so
    PR 8 clients interoperate unchanged. *)

type addr = Unix_sock of string | Tcp of string * int

(** [parse_addr s] accepts [unix:PATH], [tcp:HOST:PORT], and bare
    [PATH] (shorthand for [unix:PATH]). *)
val parse_addr : string -> (addr, string) result

val addr_to_string : addr -> string

type request =
  | Hello of {
      client : string;
      worker : bool;
          (** [true] registers [client] in the daemon's worker pool —
              external workers say this so heartbeat monitoring starts
              before their first lease *)
    }
  | Submit of {
      spec : Ncg.Sweep_spec.t;
      deadline_ms : int option;
          (** job expires this long after submission; expired jobs
              report [state = "expired"] and release queued cells *)
    }
  | Status of { job : int }
  | Results of { job : int }
  | Lease of { worker : string }
  | Complete of { worker : string; task : int; result : Ncg_obs.Json.t }
  | Fail of { worker : string; task : int; error : string }
  | Ping of { worker : string }
      (** heartbeat: proves the worker is alive between leases (long
          cells); also serves as the readmission knock after quarantine *)
  | Cancel of { job : int }
      (** client gives up on a job: queued cells nobody else waits for
          are dropped, leased ones have their lease revoked (the
          worker's in-flight computation is interrupted at the next
          cooperative checkpoint) *)
  | Subscribe
  | Stats

val request_schema : string
val request_to_json : request -> Ncg_obs.Json.t
val request_of_json : Ncg_obs.Json.t -> (request, string) result

(** Replies: [Resp_ok fields] renders as [{"ok": true, ...fields}],
    [Resp_error msg] as [{"ok": false, "error": msg}]. *)
type response =
  | Resp_ok of (string * Ncg_obs.Json.t) list
  | Resp_error of string

val response_schema : string
val response_to_json : response -> Ncg_obs.Json.t
val response_of_json : Ncg_obs.Json.t -> (response, string) result

(** {1 Leased tasks}

    The ["task"] object of a granted {!Lease} reply. The daemon encodes
    it and [ncg_served --worker] decodes it through this one codec. *)

(** [cell_fields spec cell] is the [spec], [alpha], [k] fields every
    task encoding carries (the daemon's queue payload too). *)
val cell_fields :
  Ncg.Sweep_spec.t -> Ncg.Experiment.cell -> (string * Ncg_obs.Json.t) list

(** Reads {!cell_fields} back out of an object, accepting an integral
    [alpha] written as a JSON integer. *)
val cell_of_json :
  Ncg_obs.Json.t -> (Ncg.Sweep_spec.t * Ncg.Experiment.cell, string) result

type task = {
  id : int;  (** queue entry id; echoed in {!Complete} / {!Fail} *)
  spec : Ncg.Sweep_spec.t;
  cell : Ncg.Experiment.cell;
  attempts : int;  (** this lease's attempt number, from 1 *)
}

val task_to_json : task -> Ncg_obs.Json.t
val task_of_json : Ncg_obs.Json.t -> (task, string) result

(** {1 Line transport} *)

(** [send_line oc json] writes the compact rendering plus ['\n'] and
    flushes. *)
val send_line : out_channel -> Ncg_obs.Json.t -> unit

(** [recv_line ic] reads one line and parses it; [Ok None] on EOF. *)
val recv_line : in_channel -> (Ncg_obs.Json.t option, string) result

(** [call ic oc req] sends [req] and reads one reply: [Ok None] when
    the peer hung up, [Error] on a malformed line or reply. A broken
    connection raises [Sys_error] like {!send_line}. *)
val call : in_channel -> out_channel -> request -> (response option, string) result

(** {1 Connecting} *)

(** [connect addr] opens a client socket and returns buffered channels
    over it (closing the returned [out_channel] closes the socket).
    Raises [Unix.Unix_error] on failure. *)
val connect : addr -> in_channel * out_channel
