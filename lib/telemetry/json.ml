type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------- printing ---------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN or infinity; a non-finite measurement serializes as
   null rather than producing an unparseable file. A finite float prints
   with the fewer of 15 or 17 significant digits that reads back as the
   same float, so a document round-trips bit-exactly. *)
let float_repr f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else
    (* "%g" may print an integral float as "3"; still valid JSON *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_into buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_into buf k;
            Buffer.add_char buf ':';
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let pretty v =
  let buf = Buffer.create 256 in
  let pad depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_into buf s
    | List [] -> Buffer.add_string buf "[]"
    | List l ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            go (depth + 1) x)
          l;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            escape_into buf k;
            Buffer.add_string buf ": ";
            go (depth + 1) x)
          fields;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

(* Encode a Unicode code point as UTF-8 bytes. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* Strict 4-hex-digit reader for \u escapes: [int_of_string "0x..."]
   would also accept underscores and sign characters from the source
   text, which are not legal JSON. [st.pos] is on the 'u'; on success
   it advances past the fourth digit. *)
let parse_hex4 st =
  if st.pos + 5 > String.length st.src then fail st "truncated \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"
  in
  let cp = ref 0 in
  for i = 1 to 4 do
    cp := (!cp lsl 4) lor digit st.src.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !cp

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> begin
        advance st;
        (match peek st with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
            let cp = parse_hex4 st in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* High surrogate: JSON encodes astral code points as a
                 \uD8xx\uDCxx pair. Combine when the low half follows;
                 a lone surrogate is not a code point — decode it to
                 U+FFFD rather than emitting invalid UTF-8. *)
              if
                st.pos + 2 < String.length st.src
                && st.src.[st.pos + 1] = '\\'
                && st.src.[st.pos + 2] = 'u'
              then begin
                let save = st.pos in
                st.pos <- st.pos + 2;
                let lo = parse_hex4 st in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                else begin
                  st.pos <- save;
                  add_utf8 buf 0xFFFD
                end
              end
              else add_utf8 buf 0xFFFD
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then add_utf8 buf 0xFFFD
            else add_utf8 buf cp
        | _ -> fail st "bad escape");
        advance st;
        go ()
      end
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let numchar = function
    | '0' .. '9' | '+' | '-' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> numchar c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  if s = "" then fail st "expected a number";
  let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
  if floaty then
    match float_of_string_opt s with Some f -> Float f | None -> fail st "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> ( match float_of_string_opt s with Some f -> Float f | None -> fail st "bad number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((k, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elems (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        List (elems [])
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

module Decode = struct
  let ( let* ) = Result.bind

  let str_field j name =
    match member name j with
    | Some (String s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" name)

  let int_field j name =
    match member name j with
    | Some (Int i) -> Ok i
    | _ -> Error (Printf.sprintf "missing integer field %S" name)

  let rec map_result f = function
    | [] -> Ok []
    | x :: rest ->
        let* y = f x in
        let* ys = map_result f rest in
        Ok (y :: ys)
end

let render_pretty = pretty

let write_file ?(pretty = false) ~file v =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (if pretty then render_pretty v else to_string v);
      output_char oc '\n')

let read_file ~file = of_string (In_channel.with_open_bin file In_channel.input_all)
