let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n = 1 then a.(0)
      else begin
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) in
        let hi = min (lo + 1) (n - 1) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
      end

let median xs = percentile 50.0 xs

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: xs -> List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) xs

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  match xs with
  | [] -> []
  | _ ->
      let lo, hi = min_max xs in
      let width = if hi = lo then 1.0 else (hi -. lo) /. float_of_int bins in
      let counts = Array.make bins 0 in
      List.iter
        (fun x ->
          let i = min (bins - 1) (int_of_float ((x -. lo) /. width)) in
          counts.(i) <- counts.(i) + 1)
        xs;
      List.init bins (fun i ->
          (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width), counts.(i)))

let geometric_mean = function
  | [] -> 0.0
  | xs ->
      let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
      exp (logsum /. float_of_int (List.length xs))

let summary xs =
  match xs with
  | [] -> "(empty)"
  | _ ->
      let lo, hi = min_max xs in
      Printf.sprintf "min=%.3g median=%.3g mean=%.3g max=%.3g" lo (median xs) (mean xs) hi
