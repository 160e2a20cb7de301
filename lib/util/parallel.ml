let map ?domains f xs =
  let domains =
    match domains with Some d -> d | None -> Domain.recommended_domain_count ()
  in
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let domains = min domains n in
  if domains <= 1 then List.map f xs
  else begin
    (* Contiguous chunk boundaries; the first [n mod domains] chunks get
       one extra element. *)
    let base = n / domains and extra = n mod domains in
    let bounds =
      Array.init domains (fun i ->
          let start = (i * base) + min i extra in
          let len = base + if i < extra then 1 else 0 in
          (start, len))
    in
    (* Each worker builds its own chunk array — no mutable state shared
       between domains beyond the read-only input. *)
    let worker (start, len) () = Array.init len (fun j -> f arr.(start + j)) in
    let spawned =
      Array.map (fun b -> Domain.spawn (worker b)) (Array.sub bounds 1 (domains - 1))
    in
    (* Chunk 0 runs in the calling domain. Whatever happens, every
       spawned domain is joined before any exception escapes, so a
       failing chunk can never leave domains running or results torn;
       then the failure of the lowest-numbered chunk (a deterministic
       choice) is re-raised. *)
    let capture g = match g () with v -> Ok v | exception e -> Error e in
    let chunks =
      Array.append
        [| capture (worker bounds.(0)) |]
        (Array.map (fun d -> capture (fun () -> Domain.join d)) spawned)
    in
    Array.iter (function Error e -> raise e | Ok _ -> ()) chunks;
    List.concat_map
      (function Ok chunk -> Array.to_list chunk | Error _ -> assert false)
      (Array.to_list chunks)
  end

