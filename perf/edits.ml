open Pld_ir
module Rng = Pld_util.Rng

type edit = { step : int; bench : string; inst : string }

type t = {
  rng : Rng.t;
  pristine : (string * Graph.t) list;
  bags : (string, string list) Hashtbl.t;
  mutable round : string list;
  mutable step : int;
}

let create ~seed pristine = { rng = Rng.create seed; pristine; bags = Hashtbl.create 8; round = []; step = 0 }

let shuffled rng l =
  let a = Array.of_list l in
  Rng.shuffle rng a;
  Array.to_list a

let rec draw t bench =
  match Hashtbl.find_opt t.bags bench with
  | Some (inst :: rest) ->
      Hashtbl.replace t.bags bench rest;
      inst
  | Some [] | None ->
      let g = List.assoc bench t.pristine in
      Hashtbl.replace t.bags bench
        (shuffled t.rng (List.map (fun (i : Graph.instance) -> i.inst_name) g.Graph.instances));
      draw t bench

let rec next t =
  match t.round with
  | bench :: rest ->
      t.round <- rest;
      t.step <- t.step + 1;
      { step = t.step; bench; inst = draw t bench }
  | [] ->
      t.round <- shuffled t.rng (List.map fst t.pristine);
      next t

let apply t (current : Graph.t) e =
  let pristine = List.assoc e.bench t.pristine in
  let op =
    match Graph.find_instance pristine e.inst with
    | Some i -> i.Graph.op
    | None -> invalid_arg (Printf.sprintf "Edits.apply: %s has no instance %s" e.bench e.inst)
  in
  let marked = { op with Op.body = op.Op.body @ [ Op.Printf (Printf.sprintf "edit %d" e.step, []) ] } in
  {
    current with
    Graph.instances =
      List.map
        (fun (i : Graph.instance) -> if i.Graph.inst_name = e.inst then { i with Graph.op = marked } else i)
        current.Graph.instances;
  }
