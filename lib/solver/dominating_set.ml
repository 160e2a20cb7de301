module Bitset = Ncg_util.Bitset
module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs

type problem = {
  graph : Graph.t;
  radius : int;
  free_dominators : int list;
  forbidden : int list;
}

(* Growable distance-row buffers. Row v lives in [v * n, v * n + reached.(v))
   of [rows]: the vertices w a BFS from v reached, in visit order (so by
   non-decreasing distance d), each packed with its distance as
   [(d lsl shift) lor w]. [cursor.(v)] is the number of row entries
   already added to v's ball. A workspace may back at most one live
   context at a time. *)
type workspace = {
  mutable rows : int array;
  mutable reached : int array;
  mutable cursor : int array;
}

let create_workspace () = { rows = [||]; reached = [||]; cursor = [||] }

(* The smallest shift with every vertex index below [1 lsl shift]. *)
let shift_for n =
  let rec go s = if n <= 1 lsl s then s else go (s + 1) in
  go 0

(* The balls, and the covering-set array shared across radii: forbidden
   vertices point at one shared empty set, everything else at its live
   ball. *)
type grown = { balls : Bitset.t array; sets : Bitset.t array }

(* A context amortises the best-response radius loop: the distance rows
   are computed once (n BFS runs, instead of n per radius), on the first
   radius >= 1, and each ball grows by cursor — advancing to radius r adds
   only the row entries at distance <= r not yet added. *)
type context = {
  n : int;
  shift : int;
  free_dominators : int list;
  forbidden : Bitset.t;
  max_radius : int;
  ws : workspace;
  grown : grown Lazy.t;
  mutable radius : int;  (* the largest radius asked for so far *)
}

let build_rows ?scratch ws graph ~n ~shift ~max_radius =
  if Array.length ws.rows < n * n then ws.rows <- Array.make (n * n) 0;
  if Array.length ws.reached < n then begin
    ws.reached <- Array.make n 0;
    ws.cursor <- Array.make n 0
  end;
  let s =
    match scratch with Some s -> s | None -> Bfs.create_scratch ~capacity:n ()
  in
  for v = 0 to n - 1 do
    let reached = Bfs.run s graph v ~radius:max_radius in
    let visit = Bfs.visit_order s and dist = Bfs.dist_array s in
    let base = v * n in
    for i = 0 to reached - 1 do
      let w = visit.(i) in
      ws.rows.(base + i) <- (dist.(w) lsl shift) lor w
    done;
    ws.reached.(v) <- reached;
    ws.cursor.(v) <- 0
  done

let context ?scratch ?ws ?(max_radius = max_int) ~graph ~free_dominators
    ~forbidden () =
  let n = Graph.order graph in
  let shift = shift_for n in
  let ws = match ws with Some w -> w | None -> create_workspace () in
  let forbidden = Bitset.of_list n forbidden in
  let grown =
    lazy
      (build_rows ?scratch ws graph ~n ~shift ~max_radius;
       let balls = Array.init n (fun _ -> Bitset.create n) in
       let empty = Bitset.create n in
       {
         balls;
         sets =
           Array.init n (fun v ->
               if Bitset.mem forbidden v then empty else balls.(v));
       })
  in
  { n; shift; free_dominators; forbidden; max_radius; ws; grown; radius = 0 }

let enter ctx radius =
  if radius < 0 then invalid_arg "Dominating_set: negative radius";
  if radius < ctx.radius then
    invalid_arg "Dominating_set: radius below one already visited";
  if radius > ctx.max_radius then
    invalid_arg "Dominating_set: radius beyond the context's max_radius";
  ctx.radius <- radius

let advance_to ctx radius =
  let g = Lazy.force ctx.grown in
  let { rows; reached; cursor } = ctx.ws in
  let mask = (1 lsl ctx.shift) - 1 in
  for v = 0 to ctx.n - 1 do
    let base = v * ctx.n and stop = reached.(v) and ball = g.balls.(v) in
    let c = ref cursor.(v) in
    while !c < stop && rows.(base + !c) lsr ctx.shift <= radius do
      Bitset.add ball (rows.(base + !c) land mask);
      incr c
    done;
    cursor.(v) <- !c
  done;
  g

let instance_at ctx ~radius =
  enter ctx radius;
  let g = advance_to ctx radius in
  let pre = Bitset.create ctx.n in
  List.iter
    (fun v -> Bitset.union_into ~into:pre g.balls.(v))
    ctx.free_dominators;
  { Set_cover.universe = ctx.n; sets = g.sets; pre_covered = Some pre }

let shortcut answer =
  Ncg_obs.Metrics.(incr dominating_set_shortcuts);
  answer

let fits max_size size =
  match max_size with Some cap -> size <= cap | None -> true

(* Radius 0: every ball is its centre, so the one cover of
   U = V \ free is U itself — what the greedy warm start and the branch
   and bound both return, in ascending order — unless a vertex of U is
   forbidden or |U| exceeds the cap. *)
let radius_zero ctx ~max_size =
  let free = Bitset.of_list ctx.n ctx.free_dominators in
  let size = ctx.n - Bitset.cardinal free in
  if size = 0 then Some []
  else if
    (not (Bitset.subset ctx.forbidden free)) || not (fits max_size size)
  then None
  else begin
    let u = ref [] in
    for v = ctx.n - 1 downto 0 do
      if not (Bitset.mem free v) then u := v :: !u
    done;
    Some !u
  end

(* Radius >= 1, before any solve: [`Covered] when the free balls cover
   everything, [`Skip] when no cover fits — no candidate meets the
   uncovered set U, or even the largest m = |B_r(v) ∩ U| needs
   ⌈|U|/m⌉ > max_size sets — and [`Solve] otherwise. The bound holds for
   every cover, the greedy one included, so skipping changes no answer. *)
let precheck (inst : Set_cover.instance) ~max_size =
  let u = Bitset.create inst.Set_cover.universe in
  Bitset.fill u;
  Option.iter (fun pre -> Bitset.diff_into ~into:u pre) inst.Set_cover.pre_covered;
  let size = Bitset.cardinal u in
  if size = 0 then `Covered
  else begin
    let m =
      Array.fold_left
        (fun m s -> max m (Bitset.inter_cardinal s u))
        0 inst.Set_cover.sets
    in
    if m = 0 || not (fits max_size ((size + m - 1) / m)) then `Skip
    else `Solve
  end

let of_solution (s : Set_cover.solution) = s.Set_cover.chosen

let answer_at ctx ~radius ~max_size solve =
  if radius = 0 then begin
    enter ctx 0;
    shortcut (radius_zero ctx ~max_size)
  end
  else begin
    let inst = instance_at ctx ~radius in
    match precheck inst ~max_size with
    | `Covered -> shortcut (Some [])
    | `Skip -> shortcut None
    | `Solve -> Option.map of_solution (solve inst)
  end

let solve_at ?ws ?max_size ?node_budget ctx ~radius =
  answer_at ctx ~radius ~max_size (Set_cover.solve ?ws ?max_size ?node_budget)

let greedy_at ?ws ?max_size ctx ~radius =
  Option.bind
    (answer_at ctx ~radius ~max_size (Set_cover.greedy ?ws))
    (fun s -> if fits max_size (List.length s) then Some s else None)

(* One-shot problem API, kept for tests, benches and external callers; the
   radius loop in {!Ncg.Best_response} threads a context instead. *)

let context_of (p : problem) =
  context ~max_radius:(max p.radius 0) ~graph:p.graph
    ~free_dominators:p.free_dominators ~forbidden:p.forbidden ()

let solve ?max_size ?node_budget p =
  solve_at ?max_size ?node_budget (context_of p) ~radius:(max p.radius 0)

let greedy p = greedy_at (context_of p) ~radius:(max p.radius 0)

let dominates p chosen =
  Set_cover.is_cover (instance_at (context_of p) ~radius:(max p.radius 0)) chosen
