type namespace = Counter | Histogram | Probe | Fault_site

let all = [ Counter; Histogram; Probe; Fault_site ]

let slot = function Counter -> 0 | Histogram -> 1 | Probe -> 2 | Fault_site -> 3

let capacity = function
  | Counter -> 128
  | Histogram -> 32
  | Probe -> 32
  | Fault_site -> 64

let label = function
  | Counter -> "Metrics.register"
  | Histogram -> "Histogram.register"
  | Probe -> "Probe.register"
  | Fault_site -> "Inject.site"

(* One table per namespace, indexed by [slot]. Plain unsynchronized
   state, safe exactly because every [register] call happens in the main
   domain before any fan-out; spawned domains only read, and by then the
   tables are frozen. *)

let table =
  Array.init (List.length all) (fun s -> Array.make (capacity (List.nth all s)) "")
[@@lint.domain_local "written only on the main domain at init time, read-only after fan-out"]

let by_name : (string, int) Hashtbl.t array =
  Array.init (List.length all) (fun s -> Hashtbl.create (capacity (List.nth all s)))
[@@lint.domain_local "written only on the main domain at init time, read-only after fan-out"]

let registered =
  Array.make (List.length all) 0
[@@lint.domain_local "written only on the main domain at init time, read-only after fan-out"]

let register ns name =
  if name = "" then invalid_arg (label ns ^ ": empty name");
  if not (Domain.is_main_domain ()) then
    invalid_arg
      (Printf.sprintf "%s %S: register at init time from the main domain only"
         (label ns) name);
  let s = slot ns in
  match Hashtbl.find_opt by_name.(s) name with
  | Some id -> id
  | None ->
      let id = registered.(s) in
      if id >= capacity ns then
        invalid_arg
          (Printf.sprintf "%s %S: registry full (%d names)" (label ns) name
             (capacity ns));
      table.(s).(id) <- name;
      Hashtbl.replace by_name.(s) name id;
      registered.(s) <- id + 1;
      id

let name ns id = table.(slot ns).(id)
let count ns = registered.(slot ns)
let names ns = List.init (count ns) (name ns)
let find ns name = Hashtbl.find_opt by_name.(slot ns) name

let collect key col ?(on_exit = ignore) f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some col);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set key prev;
      Option.iter on_exit prev)
    f

let merge ns ~combine a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k
        (match Hashtbl.find_opt tbl k with Some prev -> combine prev v | None -> v))
    b;
  let ordered = ref [] in
  let emit k =
    match Hashtbl.find_opt tbl k with
    | Some v ->
        ordered := (k, v) :: !ordered;
        Hashtbl.remove tbl k
    | None -> ()
  in
  for i = 0 to count ns - 1 do
    emit (name ns i)
  done;
  List.iter (fun (k, _) -> emit k) a;
  List.iter (fun (k, _) -> emit k) b;
  List.rev !ordered

let expand ns ~missing decoded =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) decoded;
  let base =
    List.init (count ns) (fun i ->
        let k = name ns i in
        (k, match Hashtbl.find_opt tbl k with Some v -> v | None -> missing ()))
  in
  base @ List.filter (fun (k, _) -> find ns k = None) decoded
