(* Representation: [limbs.(k)] holds bits [32k .. 32k+31] as an int in
   [0, 2^32). The top limb is always masked so unused bits are zero —
   every constructor and operation re-normalizes. *)

type t = { width : int; limbs : int array }

let max_width = 4096
let limb_bits = 32
let limb_mask = 0xFFFFFFFF

let nlimbs width = (width + limb_bits - 1) / limb_bits

let check_width width =
  if width < 1 || width > max_width then
    invalid_arg (Printf.sprintf "Bits: width %d out of range [1,%d]" width max_width)

let top_mask width =
  let rem = width mod limb_bits in
  if rem = 0 then limb_mask else (1 lsl rem) - 1

let normalize t =
  let n = Array.length t.limbs in
  t.limbs.(n - 1) <- t.limbs.(n - 1) land top_mask t.width;
  t

let zero width =
  check_width width;
  { width; limbs = Array.make (nlimbs width) 0 }

let width t = t.width

let copy t = { width = t.width; limbs = Array.copy t.limbs }

let of_int64 ~width v =
  check_width width;
  let t = zero width in
  let n = Array.length t.limbs in
  (* Sign-extend the int64 pattern across all limbs, then mask. *)
  let fill = if Int64.compare v 0L < 0 then limb_mask else 0 in
  for k = 0 to n - 1 do
    if k < 2 then
      t.limbs.(k) <- Int64.to_int (Int64.logand (Int64.shift_right_logical v (k * limb_bits)) 0xFFFFFFFFL)
    else t.limbs.(k) <- fill
  done;
  normalize t

(* Same pattern as [of_int64 ~width (Int64.of_int v)], without boxing. *)
let of_int ~width v =
  check_width width;
  let n = nlimbs width in
  let t = { width; limbs = Array.make n (if v < 0 then limb_mask else 0) } in
  t.limbs.(0) <- v land limb_mask;
  if n > 1 then t.limbs.(1) <- (v asr limb_bits) land limb_mask;
  normalize t

let one width = of_int ~width 1

let ones width =
  let t = zero width in
  Array.fill t.limbs 0 (Array.length t.limbs) limb_mask;
  normalize t

let get t i =
  if i < 0 || i >= t.width then invalid_arg "Bits.get: index out of range";
  t.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let msb t = get t (t.width - 1)
let equal a b = a.width = b.width && a.limbs = b.limbs
let is_zero t = Array.for_all (fun l -> l = 0) t.limbs

let to_int64_unsigned t =
  let n = Array.length t.limbs in
  let lo = Int64.of_int t.limbs.(0) in
  if n = 1 then lo
  else Int64.logor lo (Int64.shift_left (Int64.of_int t.limbs.(1)) limb_bits)

let to_int64_signed t =
  let v = to_int64_unsigned t in
  if t.width >= 64 then v
  else if msb t then Int64.logor v (Int64.shift_left (-1L) t.width)
  else v

let to_int_trunc t =
  let lo = t.limbs.(0) in
  if Array.length t.limbs = 1 then lo else (lo lor (t.limbs.(1) lsl limb_bits)) land max_int

let require_same_width name a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bits.%s: width mismatch (%d vs %d)" name a.width b.width)

let compare_unsigned a b =
  require_same_width "compare_unsigned" a b;
  let rec go k = if k < 0 then 0 else if a.limbs.(k) <> b.limbs.(k) then compare a.limbs.(k) b.limbs.(k) else go (k - 1) in
  go (Array.length a.limbs - 1)

let compare_signed a b =
  require_same_width "compare_signed" a b;
  match (msb a, msb b) with
  | true, false -> -1
  | false, true -> 1
  | _ -> compare_unsigned a b

let add a b =
  require_same_width "add" a b;
  let r = zero a.width in
  let carry = ref 0 in
  for k = 0 to Array.length r.limbs - 1 do
    let s = a.limbs.(k) + b.limbs.(k) + !carry in
    r.limbs.(k) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let lognot t =
  let r = copy t in
  for k = 0 to Array.length r.limbs - 1 do
    r.limbs.(k) <- lnot r.limbs.(k) land limb_mask
  done;
  normalize r

let neg t = add (lognot t) (one t.width)
let sub a b = add a (neg b)

let map2 f a b =
  let r = zero a.width in
  for k = 0 to Array.length r.limbs - 1 do
    r.limbs.(k) <- f a.limbs.(k) b.limbs.(k) land limb_mask
  done;
  normalize r

let logand a b = require_same_width "logand" a b; map2 ( land ) a b
let logor a b = require_same_width "logor" a b; map2 ( lor ) a b
let logxor a b = require_same_width "logxor" a b; map2 ( lxor ) a b

let shift_left t n =
  if n < 0 then invalid_arg "Bits.shift_left: negative amount";
  let r = zero t.width in
  if n >= t.width then r
  else begin
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    let nl = Array.length r.limbs in
    for k = nl - 1 downto 0 do
      let src = k - limb_shift in
      let v =
        if src < 0 then 0
        else begin
          let lo = t.limbs.(src) lsl bit_shift land limb_mask in
          let hi = if bit_shift = 0 || src = 0 then 0 else t.limbs.(src - 1) lsr (limb_bits - bit_shift) in
          lo lor hi
        end
      in
      r.limbs.(k) <- v
    done;
    normalize r
  end

let shift_right_logical t n =
  if n < 0 then invalid_arg "Bits.shift_right_logical: negative amount";
  let r = zero t.width in
  if n >= t.width then r
  else begin
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    let nl = Array.length r.limbs in
    for k = 0 to nl - 1 do
      let src = k + limb_shift in
      let v =
        if src >= nl then 0
        else begin
          let lo = t.limbs.(src) lsr bit_shift in
          let hi = if bit_shift = 0 || src + 1 >= nl then 0 else t.limbs.(src + 1) lsl (limb_bits - bit_shift) land limb_mask in
          lo lor hi
        end
      in
      r.limbs.(k) <- v
    done;
    normalize r
  end

let shift_right_arith t n =
  if n < 0 then invalid_arg "Bits.shift_right_arith: negative amount";
  if not (msb t) then shift_right_logical t n
  else begin
    let n = min n t.width in
    let shifted = shift_right_logical t n in
    (* Fill the vacated top [n] bits with ones. *)
    let fill = shift_left (ones t.width) (t.width - n) in
    logor shifted fill
  end

let resize ~signed ~width:w t =
  check_width w;
  let r = zero w in
  let nl = Array.length r.limbs and snl = Array.length t.limbs in
  let fill = if signed && msb t then limb_mask else 0 in
  for k = 0 to nl - 1 do
    r.limbs.(k) <- (if k < snl then t.limbs.(k) else fill)
  done;
  (* When sign-extending a source whose top limb is partial, smear the
     sign through the top source limb first. *)
  if signed && msb t && t.width mod limb_bits <> 0 && w > t.width then begin
    let k = snl - 1 in
    r.limbs.(k) <- r.limbs.(k) lor (lnot (top_mask t.width) land limb_mask)
  end;
  normalize r

let mul_full a b =
  let w = a.width + b.width in
  check_width w;
  let r = zero w in
  let na = Array.length a.limbs and nb = Array.length b.limbs in
  let nr = Array.length r.limbs in
  (* Schoolbook multiplication on 16-bit half-limbs to stay within the
     63-bit native int during partial products. *)
  let half x i = if i land 1 = 0 then x land 0xFFFF else (x lsr 16) land 0xFFFF in
  let acc = Array.make (2 * nr + 2) 0 in
  for i = 0 to (2 * na) - 1 do
    for j = 0 to (2 * nb) - 1 do
      let p = half a.limbs.(i / 2) i * half b.limbs.(j / 2) j in
      let pos = i + j in
      acc.(pos) <- acc.(pos) + (p land 0xFFFF);
      acc.(pos + 1) <- acc.(pos + 1) + (p lsr 16)
    done
  done;
  (* Propagate carries across 16-bit cells. *)
  let carry = ref 0 in
  for k = 0 to (2 * nr) - 1 do
    let v = acc.(k) + !carry in
    acc.(k) <- v land 0xFFFF;
    carry := v lsr 16
  done;
  for k = 0 to nr - 1 do
    r.limbs.(k) <- acc.(2 * k) lor (acc.((2 * k) + 1) lsl 16)
  done;
  normalize r

let mul a b =
  require_same_width "mul" a b;
  resize ~signed:false ~width:a.width (mul_full a b)

(* Restoring long division, bit by bit, on the limbs in place. The
   partial remainder never reaches 2^width: after k steps it is at most
   the top k bits of [a]. *)
let udivmod a b =
  require_same_width "udivmod" a b;
  let w = a.width in
  if is_zero b then (ones w, copy a)
  else begin
    let q = zero w and r = zero w in
    let n = Array.length r.limbs in
    let al = a.limbs and bl = b.limbs and ql = q.limbs and rl = r.limbs in
    let rec at_least k = k < 0 || (rl.(k) = bl.(k) && at_least (k - 1)) || rl.(k) > bl.(k) in
    for i = w - 1 downto 0 do
      let carry = ref ((al.(i / limb_bits) lsr (i mod limb_bits)) land 1) in
      for k = 0 to n - 1 do
        let v = (rl.(k) lsl 1) lor !carry in
        rl.(k) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      if at_least (n - 1) then begin
        let borrow = ref 0 in
        for k = 0 to n - 1 do
          let v = rl.(k) - bl.(k) - !borrow in
          rl.(k) <- v land limb_mask;
          borrow := if v < 0 then 1 else 0
        done;
        ql.(i / limb_bits) <- ql.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (q, r)
  end

let udiv a b = fst (udivmod a b)
let urem a b = snd (udivmod a b)

let sdivmod a b =
  let negate_a = msb a and negate_b = msb b in
  let abs v = if msb v then neg v else v in
  let q, r = udivmod (abs a) (abs b) in
  let q = if negate_a <> negate_b then neg q else q in
  let r = if negate_a then neg r else r in
  if is_zero b then (ones a.width, copy a) else (q, r)

let sdiv a b = fst (sdivmod a b)
let srem a b = snd (sdivmod a b)

let extract t ~hi ~lo =
  if lo < 0 || hi >= t.width || hi < lo then invalid_arg "Bits.extract: bad range";
  resize ~signed:false ~width:(hi - lo + 1) (shift_right_logical t lo)

let popcount t =
  Array.fold_left
    (fun acc limb ->
      let rec count v acc = if v = 0 then acc else count (v lsr 1) (acc + (v land 1)) in
      count limb acc)
    0 t.limbs

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Bits.of_hex: bad digit %c" c)

let of_hex ~width s =
  check_width width;
  let t = ref (zero width) in
  String.iter (fun c -> t := logor (shift_left !t 4) (of_int ~width (hex_digit c))) s;
  !t

let to_hex t =
  let digits = (t.width + 3) / 4 in
  let buf = Bytes.create digits in
  for d = 0 to digits - 1 do
    let lo = d * 4 in
    let v = ref 0 in
    for b = 3 downto 0 do
      let i = lo + b in
      v := (!v lsl 1) lor (if i < t.width && get t i then 1 else 0)
    done;
    Bytes.set buf (digits - 1 - d) "0123456789abcdef".[!v]
  done;
  Bytes.to_string buf

let to_decimal_unsigned t =
  if is_zero t then "0"
  else begin
    (* Work at >= 4 bits so the divisor 10 does not wrap to zero. *)
    let t = if t.width < 4 then resize ~signed:false ~width:4 t else t in
    let ten = of_int ~width:t.width 10 in
    let rec go v acc =
      if is_zero v then acc
      else begin
        let q, r = udivmod v ten in
        go q (String.make 1 (Char.chr (Char.code '0' + to_int_trunc r)) ^ acc)
      end
    in
    go t ""
  end

let to_decimal_signed t =
  if msb t then "-" ^ to_decimal_unsigned (neg t) else to_decimal_unsigned t
