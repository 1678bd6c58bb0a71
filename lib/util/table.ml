type align = Left | Right

let cell rows i j = match List.nth_opt (List.nth rows i) j with Some c -> c | None -> ""

let render ?(aligns = []) ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width j =
    List.fold_left (fun acc r -> max acc (String.length (match List.nth_opt r j with Some c -> c | None -> ""))) 0 all
  in
  let widths = List.init cols width in
  let align j = match List.nth_opt aligns j with Some a -> a | None -> Left in
  let pad j s =
    let w = List.nth widths j in
    let n = w - String.length s in
    if n <= 0 then s
    else match align j with Left -> s ^ String.make n ' ' | Right -> String.make n ' ' ^ s
  in
  let line ch = "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths) ^ "+" in
  let row r = "| " ^ String.concat " | " (List.mapi (fun j _ -> pad j (match List.nth_opt r j with Some c -> c | None -> "")) widths) ^ " |" in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '=');
  Buffer.add_char buf '\n';
  List.iteri
    (fun i _ ->
      ignore (cell rows i 0);
      Buffer.add_string buf (row (List.nth rows i));
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (line '-');
  Buffer.contents buf
