type mapping = { to_sub : int array; to_host : int array }

(* Build the induced CSR directly from [to_sub]/[to_host]: because renaming
   preserves host order and host segments are sorted, filtered segments stay
   sorted — two passes (count, fill) and no re-sort or dedupe. *)
let induced_of_mapping g to_sub to_host =
  let nv = Array.length to_host in
  let offsets = Array.make (nv + 1) 0 in
  let host_off = Graph.csr_offsets g and host_packed = Graph.csr_packed g in
  for i = 0 to nv - 1 do
    let v = to_host.(i) in
    let deg = ref 0 in
    for p = host_off.(v) to host_off.(v + 1) - 1 do
      if to_sub.(host_packed.(p)) >= 0 then incr deg
    done;
    offsets.(i + 1) <- offsets.(i) + !deg
  done;
  let total = offsets.(nv) in
  let packed = Array.make total 0 in
  let idx = ref 0 in
  for i = 0 to nv - 1 do
    let v = to_host.(i) in
    for p = host_off.(v) to host_off.(v + 1) - 1 do
      let j = to_sub.(host_packed.(p)) in
      if j >= 0 then begin
        packed.(!idx) <- j;
        incr idx
      end
    done
  done;
  Graph.unsafe_of_csr ~n:nv ~m:(total / 2) ~offsets ~packed

let induced g vertices =
  let n = Graph.order g in
  let to_sub = Array.make n (-1) in
  let sorted = List.sort_uniq compare vertices in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Subgraph.induced: vertex out of range")
    sorted;
  let to_host = Array.of_list sorted in
  Array.iteri (fun i v -> to_sub.(v) <- i) to_host;
  (induced_of_mapping g to_sub to_host, { to_sub; to_host })

let ball_induced ?scratch g u ~radius =
  let n = Graph.order g in
  let s =
    match scratch with
    | Some s -> s
    | None -> Bfs.create_scratch ~capacity:n ()
  in
  let visited = Bfs.run s g u ~radius in
  (* The ball in increasing host order, so the mapping arrays come out
     exactly as [induced] would build them. A small ball is read off the
     visit-order prefix and insertion-sorted, O(ball²) with no pass over
     the host; a ball that is a large share of the host is read off the
     distance buffer in one O(n) pass, which beats any sort there. *)
  let to_host =
    if visited * visited <= 4 * n then begin
      let a = Array.sub (Bfs.visit_order s) 0 visited in
      for i = 1 to visited - 1 do
        let v = a.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && a.(!j) > v do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- v
      done;
      a
    end
    else begin
      let dist = Bfs.dist_array s in
      let a = Array.make visited 0 in
      let i = ref 0 in
      for v = 0 to n - 1 do
        if dist.(v) >= 0 then begin
          a.(!i) <- v;
          incr i
        end
      done;
      a
    end
  in
  let to_sub = Array.make n (-1) in
  Array.iteri (fun i v -> to_sub.(v) <- i) to_host;
  (induced_of_mapping g to_sub to_host, { to_sub; to_host })
