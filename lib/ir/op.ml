type lvalue = LVar of string | LIdx of string * Expr.t

type stmt =
  | Assign of lvalue * Expr.t
  | Read of lvalue * string
  | Write of string * Expr.t
  | For of { var : string; lo : int; hi : int; body : stmt list; pipeline : bool }
  | If of Expr.t * stmt list * stmt list
  | Printf of string * Expr.t list

type port = { port_name : string; elem : Dtype.t }

type decl =
  | Scalar of { name : string; dtype : Dtype.t; init : Value.t option }
  | Array of { name : string; dtype : Dtype.t; length : int; init : Value.t array option }

type t = {
  name : string;
  inputs : port list;
  outputs : port list;
  locals : decl list;
  body : stmt list;
}

let make ~name ~inputs ~outputs ?(locals = []) body = { name; inputs; outputs; locals; body }

let port port_name elem = { port_name; elem }
let word_port name = port name Dtype.word
let scalar ?init name dtype = Scalar { name; dtype; init }
let array ?init name dtype length = Array { name; dtype; length; init }

let find_output t name = List.find_opt (fun p -> p.port_name = name) t.outputs

let rec stmt_size s =
  match s with
  | Assign _ | Read _ | Write _ | Printf _ -> 1
  | For { body; _ } -> 1 + List.fold_left (fun acc s -> acc + stmt_size s) 0 body
  | If (_, a, b) ->
      1
      + List.fold_left (fun acc s -> acc + stmt_size s) 0 a
      + List.fold_left (fun acc s -> acc + stmt_size s) 0 b

let stmt_count t = List.fold_left (fun acc s -> acc + stmt_size s) 0 t.body

let pp_lvalue fmt = function
  | LVar v -> Format.pp_print_string fmt v
  | LIdx (a, i) -> Format.fprintf fmt "%s[%a]" a Expr.pp i

let rec pp_stmt indent fmt s =
  let pad = String.make indent ' ' in
  match s with
  | Assign (lv, e) -> Format.fprintf fmt "%s%a = %a;" pad pp_lvalue lv Expr.pp e
  | Read (lv, port) -> Format.fprintf fmt "%s%a = %s.read();" pad pp_lvalue lv port
  | Write (port, e) -> Format.fprintf fmt "%s%s.write(%a);" pad port Expr.pp e
  | Printf (msg, args) ->
      Format.fprintf fmt "%sprintf(%S%s);" pad msg
        (String.concat "" (List.map (Format.asprintf ", %a" Expr.pp) args))
  | For { var; lo; hi; body; pipeline } ->
      Format.fprintf fmt "%sfor (int %s = %d; %s < %d; %s++) {%s@\n%a@\n%s}" pad var lo var hi var
        (if pipeline then " // #pragma HLS pipeline" else "")
        (pp_body (indent + 2)) body pad
  | If (c, a, []) ->
      Format.fprintf fmt "%sif (%a) {@\n%a@\n%s}" pad Expr.pp c (pp_body (indent + 2)) a pad
  | If (c, a, b) ->
      Format.fprintf fmt "%sif (%a) {@\n%a@\n%s} else {@\n%a@\n%s}" pad Expr.pp c
        (pp_body (indent + 2)) a pad (pp_body (indent + 2)) b pad

and pp_body indent fmt body =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "\n")
    (pp_stmt indent) fmt body

let pp_decl fmt = function
  | Scalar { name; dtype; init } ->
      Format.fprintf fmt "  %a %s%s;" Dtype.pp dtype name
        (match init with None -> "" | Some v -> Printf.sprintf " = %s" (Value.to_string v))
  | Array { name; dtype; length; init } ->
      Format.fprintf fmt "  %a %s[%d];%s" Dtype.pp dtype name length
        (match init with None -> "" | Some _ -> " // initialized")

let pp fmt t =
  let pp_port fmt p = Format.fprintf fmt "hls::stream<%a>& %s" Dtype.pp p.elem p.port_name in
  Format.fprintf fmt "void %s(%a) {@\n" t.name
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_port)
    (t.inputs @ t.outputs);
  List.iter (fun d -> Format.fprintf fmt "%a@\n" pp_decl d) t.locals;
  Format.fprintf fmt "%a@\n}" (pp_body 2) t.body

let source t = Format.asprintf "%a" pp t
