(* Immutable flat-CSR representation: [offsets] has n+1 entries and
   [packed] holds the 2m neighbour entries, each per-vertex segment sorted
   ascending. A canonical form (sorted, deduped segments) makes structural
   equality a plain array comparison and lets subgraph extraction copy
   segments without re-sorting. *)

type t = { n : int; m : int; offsets : int array; packed : int array }

let check_endpoint n v =
  if v < 0 || v >= n then invalid_arg "Graph: vertex out of range"

(* Build from a sorted array of codes [u * n + v], one per directed arc,
   duplicates allowed (they collapse). Shared by [of_edges]/[add_edges]. *)
let of_sorted_codes ~n codes =
  let len = Array.length codes in
  (* Count unique codes. *)
  let total = ref 0 in
  for i = 0 to len - 1 do
    if i = 0 || codes.(i) <> codes.(i - 1) then incr total
  done;
  let total = !total in
  let offsets = Array.make (n + 1) 0 in
  let packed = Array.make total 0 in
  let idx = ref 0 in
  for i = 0 to len - 1 do
    if i = 0 || codes.(i) <> codes.(i - 1) then begin
      let u = codes.(i) / n and v = codes.(i) mod n in
      offsets.(u + 1) <- offsets.(u + 1) + 1;
      packed.(!idx) <- v;
      incr idx
    end
  done;
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + offsets.(u + 1)
  done;
  { n; m = total / 2; offsets; packed }

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative order";
  let len = List.length edges in
  let codes = Array.make (2 * len) 0 in
  let i = ref 0 in
  List.iter
    (fun (u, v) ->
      check_endpoint n u;
      check_endpoint n v;
      if u = v then invalid_arg "Graph.of_edges: self loop";
      codes.(!i) <- (u * n) + v;
      codes.(!i + 1) <- (v * n) + u;
      i := !i + 2)
    edges;
  Array.sort (fun (a : int) b -> compare a b) codes;
  of_sorted_codes ~n codes

let empty n =
  if n < 0 then invalid_arg "Graph.empty: negative order";
  { n; m = 0; offsets = Array.make (n + 1) 0; packed = [||] }

let order g = g.n
let size g = g.m
let csr_offsets g = g.offsets
let csr_packed g = g.packed

let unsafe_of_csr ~n ~m ~offsets ~packed =
  (* Cheap shape checks only; callers promise sorted, deduped, symmetric
     segments with no self loops and exclusive ownership of the arrays. *)
  if
    n < 0
    || Array.length offsets <> n + 1
    || offsets.(0) <> 0
    || offsets.(n) <> Array.length packed
    || Array.length packed <> 2 * m
  then invalid_arg "Graph.unsafe_of_csr: inconsistent shape";
  { n; m; offsets; packed }

let neighbors g u =
  check_endpoint g.n u;
  let off = g.offsets.(u) in
  Array.sub g.packed off (g.offsets.(u + 1) - off)

let degree g u =
  check_endpoint g.n u;
  g.offsets.(u + 1) - g.offsets.(u)

let iter_neighbors f g u =
  check_endpoint g.n u;
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f g.packed.(i)
  done

let fold_neighbors f g u init =
  check_endpoint g.n u;
  let acc = ref init in
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    acc := f g.packed.(i) !acc
  done;
  !acc

let mem_edge g u v =
  check_endpoint g.n u;
  check_endpoint g.n v;
  let packed = g.packed in
  let rec bsearch lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if packed.(mid) = v then true
      else if packed.(mid) < v then bsearch (mid + 1) hi
      else bsearch lo mid
    end
  in
  bsearch g.offsets.(u) g.offsets.(u + 1)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = g.packed.(i) in
      if u < v then f u v
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let fold_vertices f g init =
  let acc = ref init in
  for u = 0 to g.n - 1 do
    acc := f u !acc
  done;
  !acc

let add_edges g extra =
  let n = g.n in
  let extra_len = List.length extra in
  let codes = Array.make (Array.length g.packed + (2 * extra_len)) 0 in
  let i = ref 0 in
  for u = 0 to n - 1 do
    for j = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      codes.(!i) <- (u * n) + g.packed.(j);
      incr i
    done
  done;
  List.iter
    (fun (u, v) ->
      check_endpoint n u;
      check_endpoint n v;
      if u = v then invalid_arg "Graph.add_edges: self loop";
      codes.(!i) <- (u * n) + v;
      codes.(!i + 1) <- (v * n) + u;
      i := !i + 2)
    extra;
  Array.sort (fun (a : int) b -> compare a b) codes;
  of_sorted_codes ~n codes

let remove_vertex_edges g u =
  check_endpoint g.n u;
  let n = g.n in
  let du = degree g u in
  let total = Array.length g.packed - (2 * du) in
  let offsets = Array.make (n + 1) 0 in
  let packed = Array.make total 0 in
  let idx = ref 0 in
  for w = 0 to n - 1 do
    if w <> u then
      for i = g.offsets.(w) to g.offsets.(w + 1) - 1 do
        let v = g.packed.(i) in
        if v <> u then begin
          packed.(!idx) <- v;
          incr idx
        end
      done;
    offsets.(w + 1) <- !idx
  done;
  { n; m = total / 2; offsets; packed }

(* [with_star g u star] is [g] with every edge incident to [u] replaced by
   edges from [u] to exactly the members of [star] (sorted, unique, no [u]).
   Only u, its old neighbours (they lose u) and the star (they gain u)
   change segment; the runs of untouched vertices between them are copied
   with one blit each and their offsets shifted, so the cost is a memcpy
   of the arrays plus O(deg u + |star|) segment edits — the hot primitive
   behind {!Ncg.View.with_strategy} and the dynamics' per-move update. *)
let with_star g u star =
  check_endpoint g.n u;
  let n = g.n in
  let ds = Array.length star in
  Array.iteri
    (fun i v ->
      check_endpoint n v;
      if v = u then invalid_arg "Graph.with_star: self loop";
      if i > 0 && star.(i - 1) >= v then
        invalid_arg "Graph.with_star: star not sorted strictly ascending")
    star;
  let old_lo = g.offsets.(u) and old_hi = g.offsets.(u + 1) in
  let total = Array.length g.packed - (2 * (old_hi - old_lo)) + (2 * ds) in
  let offsets = Array.make (n + 1) 0 in
  let packed = Array.make total 0 in
  let idx = ref 0 in
  (* [next]: first vertex not yet emitted; [oi]/[si]: cursors into u's old
     segment and into [star], both ascending. *)
  let next = ref 0 and oi = ref old_lo and si = ref 0 in
  let copy_upto w =
    let src = g.offsets.(!next) in
    let len = g.offsets.(w) - src in
    Array.blit g.packed src packed !idx len;
    let shift = !idx - src in
    for x = !next to w - 1 do
      offsets.(x + 1) <- g.offsets.(x + 1) + shift
    done;
    idx := !idx + len
  in
  let u_done = ref false in
  while (not !u_done) || !oi < old_hi || !si < ds do
    let w =
      min
        (if !u_done then max_int else u)
        (min
           (if !oi < old_hi then g.packed.(!oi) else max_int)
           (if !si < ds then star.(!si) else max_int))
    in
    copy_upto w;
    if w = u then begin
      Array.blit star 0 packed !idx ds;
      idx := !idx + ds;
      u_done := true
    end
    else begin
      let drop_u = !oi < old_hi && g.packed.(!oi) = w in
      let in_star = !si < ds && star.(!si) = w in
      if drop_u then incr oi;
      if in_star then incr si;
      (* w's segment with u removed, then u merged back in sorted
         position when w is in the new star. *)
      let placed = ref false in
      for i = g.offsets.(w) to g.offsets.(w + 1) - 1 do
        let v = g.packed.(i) in
        if v <> u then begin
          if in_star && (not !placed) && v > u then begin
            packed.(!idx) <- u;
            incr idx;
            placed := true
          end;
          packed.(!idx) <- v;
          incr idx
        end
      done;
      if in_star && not !placed then begin
        packed.(!idx) <- u;
        incr idx
      end
    end;
    offsets.(w + 1) <- !idx;
    next := w + 1
  done;
  copy_upto n;
  { n; m = total / 2; offsets; packed }

let equal a b =
  a.n = b.n && a.m = b.m && a.offsets = b.offsets && a.packed = b.packed

let pp ppf g = Format.fprintf ppf "graph(n=%d, m=%d)" g.n g.m
