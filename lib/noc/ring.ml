type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create () = { buf = [||]; head = 0; len = 0 }
let length r = r.len
let is_empty r = r.len = 0

let grow r =
  let cap = Array.length r.buf in
  let buf = Array.make (max 4 (2 * cap)) 0 in
  for i = 0 to r.len - 1 do
    buf.(i) <- r.buf.((r.head + i) land (cap - 1))
  done;
  r.buf <- buf;
  r.head <- 0

let push r x =
  if r.len = Array.length r.buf then grow r;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- x;
  r.len <- r.len + 1

let peek r =
  if r.len = 0 then invalid_arg "Ring.peek: empty";
  r.buf.(r.head)

let pop r =
  let x = peek r in
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  x

let clear r =
  r.head <- 0;
  r.len <- 0
