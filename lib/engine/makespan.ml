let lpt_critical ~workers named =
  if workers < 1 then invalid_arg "Makespan: need at least one worker";
  let loads = Array.make workers 0.0 in
  let jobs = Array.make workers [] in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) named in
  List.iter
    (fun (name, d) ->
      let best = ref 0 in
      Array.iteri (fun i l -> if l < loads.(!best) then best := i) loads;
      loads.(!best) <- loads.(!best) +. d;
      jobs.(!best) <- name :: jobs.(!best))
    sorted;
  let best = ref 0 in
  Array.iteri (fun i l -> if l > loads.(!best) then best := i) loads;
  (loads.(!best), List.rev jobs.(!best))

let lpt ~workers durations = fst (lpt_critical ~workers (List.map (fun d -> ("", d)) durations))
