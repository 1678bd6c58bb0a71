module Topo = Pld_util.Topo

exception Invalid of string

type 'a ctx = { fetch : string -> 'a; worker : int }

type 'a node = {
  id : string;
  kind : string;
  deps : string list;
  model : 'a -> float;
  phases : 'a -> (string * float) list;
  run : 'a ctx -> 'a;
}

let node ~id ~kind ?(deps = []) ?(model = fun _ -> 0.0) ?(phases = fun _ -> []) run =
  { id; kind; deps; model; phases; run }

let id n = n.id
let kind n = n.kind
let deps n = n.deps
let model n = n.model
let phases n = n.phases
let run n = n.run

type 'a t = {
  list : 'a node list;
  index : (string, int) Hashtbl.t;  (** id -> position in [list] *)
  topo : 'a node list;
  deps_of : (string, string list) Hashtbl.t;  (** id -> dependent ids *)
}

let make nodes =
  let n = List.length nodes in
  let index = Hashtbl.create (2 * n) in
  List.iteri
    (fun i node ->
      if Hashtbl.mem index node.id then raise (Invalid ("duplicate job id " ^ node.id));
      Hashtbl.add index node.id i)
    nodes;
  let arr = Array.of_list nodes in
  let edges =
    List.concat_map
      (fun node ->
        List.map
          (fun d ->
            match Hashtbl.find_opt index d with
            | Some i -> (i, Hashtbl.find index node.id)
            | None -> raise (Invalid (Printf.sprintf "job %s depends on unknown %s" node.id d)))
          node.deps)
      nodes
  in
  let topo =
    match Topo.sort ~n ~edges with
    | order -> List.map (fun i -> arr.(i)) order
    | exception Topo.Cycle cycle ->
        raise
          (Invalid
             ("dependency cycle: "
             ^ String.concat " -> " (List.map (fun i -> arr.(i).id) cycle)))
  in
  let deps_of = Hashtbl.create (2 * n) in
  List.iter
    (fun node ->
      List.iter
        (fun d -> Hashtbl.replace deps_of d (node.id :: Option.value ~default:[] (Hashtbl.find_opt deps_of d)))
        node.deps)
    nodes;
  (* Restore submission order among dependents. *)
  Hashtbl.iter
    (fun k v -> Hashtbl.replace deps_of k (List.sort (fun a b -> compare (Hashtbl.find index a) (Hashtbl.find index b)) v))
    deps_of;
  { list = nodes; index; topo; deps_of }

let size t = List.length t.list
let nodes t = t.list
let order t = t.topo
let dependents t id = Option.value ~default:[] (Hashtbl.find_opt t.deps_of id)
