type t =
  | Bool
  | UInt of int
  | SInt of int
  | UFixed of { width : int; int_bits : int }
  | SFixed of { width : int; int_bits : int }

let word = UInt 32

let width = function
  | Bool -> 1
  | UInt w | SInt w -> w
  | UFixed { width; _ } | SFixed { width; _ } -> width

let int_bits = function
  | Bool -> 1
  | UInt w | SInt w -> w
  | UFixed { int_bits; _ } | SFixed { int_bits; _ } -> int_bits

let frac t = width t - int_bits t

let is_integer = function Bool | UInt _ | SInt _ -> true | UFixed _ | SFixed _ -> false
let is_signed = function Bool | UInt _ | UFixed _ -> false | SInt _ | SFixed _ -> true
let equal (a : t) (b : t) = a = b

let to_string = function
  | Bool -> "bool"
  | UInt w -> Printf.sprintf "ap_uint<%d>" w
  | SInt w -> Printf.sprintf "ap_int<%d>" w
  | UFixed { width; int_bits } -> Printf.sprintf "ap_ufixed<%d,%d>" width int_bits
  | SFixed { width; int_bits } -> Printf.sprintf "ap_fixed<%d,%d>" width int_bits

let pp fmt t = Format.pp_print_string fmt (to_string t)
