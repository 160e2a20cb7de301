type distance_profile = {
  balls : int array;
  eccentricities : int array;
  statuses : int array;
  connected : bool;
}

let distance_profile g ~radius =
  let n = Graph.order g in
  let balls = Array.make n 0 in
  let eccentricities = Array.make n 0 in
  let statuses = Array.make n 0 in
  let connected = ref true in
  let s = Bfs.create_scratch ~capacity:n () in
  for u = 0 to n - 1 do
    let visited = Bfs.run s g u ~radius:max_int in
    let dist = Bfs.dist_array s and order = Bfs.visit_order s in
    (* Visit order is by non-decreasing distance, so the last vertex is a
       farthest one and the ball is a prefix. *)
    let ball = ref 0 and status = ref 0 in
    for i = 0 to visited - 1 do
      let d = dist.(order.(i)) in
      if d <= radius then incr ball;
      status := !status + d
    done;
    balls.(u) <- !ball;
    eccentricities.(u) <- dist.(order.(visited - 1));
    statuses.(u) <- !status;
    if visited < n then connected := false
  done;
  { balls; eccentricities; statuses; connected = !connected }

let eccentricities g =
  let p = distance_profile g ~radius:0 in
  if p.connected then Some p.eccentricities else None

let diameter g =
  if Graph.order g = 0 then None
  else Option.map (fun ecc -> Array.fold_left max 0 ecc) (eccentricities g)

let radius g =
  if Graph.order g = 0 then None
  else Option.map (fun ecc -> Array.fold_left min max_int ecc) (eccentricities g)

let max_degree g =
  Graph.fold_vertices (fun u acc -> max acc (Graph.degree g u)) g 0

let avg_degree g =
  let n = Graph.order g in
  if n = 0 then 0.0 else 2.0 *. float_of_int (Graph.size g) /. float_of_int n

let total_distance g =
  let p = distance_profile g ~radius:0 in
  if p.connected then Some (Array.fold_left ( + ) 0 p.statuses) else None

let distance_matrix g =
  Array.init (Graph.order g) (fun u -> Bfs.distances g u)

let density g =
  let n = Graph.order g in
  if n < 2 then 0.0
  else 2.0 *. float_of_int (Graph.size g) /. float_of_int (n * (n - 1))

let degree_histogram g =
  let hist = Array.make (max_degree g + 1) 0 in
  Graph.fold_vertices
    (fun u () ->
      let d = Graph.degree g u in
      hist.(d) <- hist.(d) + 1)
    g ();
  hist

let local_clustering g u =
  let d = Graph.degree g u in
  if d < 2 then 0.0
  else begin
    let offsets = Graph.csr_offsets g and packed = Graph.csr_packed g in
    let links = ref 0 in
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      for j = i + 1 to offsets.(u + 1) - 1 do
        if Graph.mem_edge g packed.(i) packed.(j) then incr links
      done
    done;
    2.0 *. float_of_int !links /. float_of_int (d * (d - 1))
  end

let avg_clustering g =
  let n = Graph.order g in
  if n = 0 then 0.0
  else
    Graph.fold_vertices (fun u acc -> acc +. local_clustering g u) g 0.0
    /. float_of_int n
