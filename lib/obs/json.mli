(** Minimal JSON tree and serializer.

    Just enough for telemetry export ({!Metrics}, {!Span},
    [BENCH_experiment.json]) without pulling in a JSON dependency.
    Numbers follow OCaml float formatting; NaN and infinities serialize
    as [null] so the output stays standard-compliant. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact one-line rendering. *)
val to_string : t -> string

(** Two-space indented rendering, ending in a newline. *)
val to_string_pretty : t -> string

(** [to_file path json] writes the pretty rendering {e atomically}: the
    document is written to a same-directory temp file, fsync'd, and
    renamed over [path] — a crash at any point leaves either the old
    file or the complete new one, never a partial JSON artifact. *)
val to_file : string -> t -> unit

(** [of_string s] parses one JSON document (RFC 8259 grammar: escapes,
    [\uXXXX] with surrogate pairs decoded to UTF-8, exponents). Numbers
    containing ['.'], ['e'] or ['E'] parse as [Float], others as [Int]
    (falling back to [Float] on overflow). Used by the test suite to
    validate everything the emitters produce — escaping round-trips,
    Chrome traces, JSONL events — without an external JSON dependency.
    [Error msg] carries the failure offset. Never raises, whatever the
    input bytes (fuzz-tested on arbitrary and truncated strings). *)
val of_string : string -> (t, string) result

(** [member name j] is field [name] of object [j]; [None] when [j] is
    not an object or lacks the field. *)
val member : string -> t -> t option

(** [of_file path] reads and parses a whole file; [Error] carries the
    I/O or parse message. *)
val of_file : string -> (t, string) result
