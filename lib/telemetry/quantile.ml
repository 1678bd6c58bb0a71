let of_buckets buckets q =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  if total = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let last_finite =
      List.fold_left (fun acc (e, _) -> if Float.is_finite e then e else acc) 0.0 buckets
    in
    let rec walk lower cum = function
      | [] -> last_finite
      | (edge, count) :: rest ->
          let cum' = cum + count in
          if rank <= cum' && count > 0 then
            if Float.is_finite edge then
              (* Linear interpolation inside the bucket: rank sits
                 (rank - cum) counts into a bucket of [count] counts. *)
              lower +. ((edge -. lower) *. (float_of_int (rank - cum) /. float_of_int count))
            else last_finite
          else walk (if Float.is_finite edge then edge else lower) cum' rest
    in
    walk 0.0 0 buckets
  end

let buckets_of_counts ~edges ~counts =
  List.init (Array.length counts) (fun i ->
      let edge = if i < Array.length edges then edges.(i) else Float.infinity in
      (edge, counts.(i)))
