module N = Pld_netlist.Netlist

type tile_kind = Clb | Bram | Dsp | Shell | Noc | Hbm

type t = {
  dev_name : string;
  cols : int;
  rows : int;
  kind : tile_kind array array;
  slr_boundary_row : int;
}

let tile_capacity = function
  | Clb -> { N.res_zero with luts = 48; ffs = 96 }
  | Bram -> { N.res_zero with brams = 1 }
  | Dsp -> { N.res_zero with dsps = 2 }
  | Shell | Noc | Hbm -> N.res_zero

let slr_of_row t row = if row >= t.slr_boundary_row then 1 else 0
let kind_at t x y = t.kind.(x).(y)

(* Column composition of the three page groups plus the interface
   column block. The patterns make the four page types of Tab. 1
   heterogeneous in BRAM/DSP mix, like real fabric columns. *)
let group_a = [| Clb; Clb; Clb; Clb; Bram; Clb; Clb; Clb; Bram; Dsp |] (* cols 0-9 *)
let group_b = [| Clb; Clb; Clb; Bram; Clb; Clb; Clb; Dsp |] (* cols 10-17 *)
let group_c = [| Clb; Clb; Clb; Bram; Clb; Clb; Clb; Dsp; Dsp |] (* cols 18-26 *)
let group_d = [| Clb; Clb; Clb; Bram; Clb; Clb; Clb; Dsp |] (* cols 27-34, Type-4 + NoC *)

let u50_model () =
  let cols = 40 and rows = 30 in
  let kind = Array.make_matrix cols rows Clb in
  let column_kind x =
    if x < 10 then group_a.(x)
    else if x < 18 then group_b.(x - 10)
    else if x < 27 then group_c.(x - 18)
    else if x < 35 then group_d.(x - 27)
    else Shell
  in
  for x = 0 to cols - 1 do
    for y = 0 to rows - 1 do
      (* The linking-network region (cols 27-34, rows >= 5) is ordinary
         fabric at the device level: the -O1 overlay claims it, while a
         monolithic -O3 compile may place user logic there. *)
      let k =
        if column_kind x = Shell then Shell
        else if y <= 1 then Hbm (* HBM hard IP rows *)
        else column_kind x
      in
      kind.(x).(y) <- k
    done
  done;
  (* Row 14 starts SLR1: page bands are 4 rows tall starting at row 2,
     so no page crosses the SLR boundary. *)
  { dev_name = "xcu50-model"; cols; rows; kind; slr_boundary_row = 14 }

let total_user_resources t =
  let acc = ref N.res_zero in
  for x = 0 to t.cols - 1 do
    for y = 0 to t.rows - 1 do
      match t.kind.(x).(y) with
      | Clb | Bram | Dsp -> acc := N.res_add !acc (tile_capacity t.kind.(x).(y))
      | Shell | Noc | Hbm -> ()
    done
  done;
  !acc

let render t =
  let char_of = function Clb -> '.' | Bram -> 'B' | Dsp -> 'D' | Shell -> 'S' | Noc -> 'N' | Hbm -> 'H' in
  let buf = Buffer.create ((t.cols + 1) * t.rows) in
  for y = t.rows - 1 downto 0 do
    for x = 0 to t.cols - 1 do
      Buffer.add_char buf (char_of t.kind.(x).(y))
    done;
    if y = t.slr_boundary_row then Buffer.add_string buf "  <- SLR boundary";
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
