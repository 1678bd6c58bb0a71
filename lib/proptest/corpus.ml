module B = Pld_core.Build
module Json = Pld_telemetry.Json

type entry = {
  note : string;
  expect : string option;  (** failure class a clean replay must still show *)
  levels : B.level list;
  graph : Pld_ir.Graph.t;
  workload : (string * Pld_ir.Value.t list) list;
  mutation : Mutate.t option;
}

let version = 1

let level_of_name s =
  match B.level_of_name s with Ok l -> l | Error msg -> raise (Serial.Malformed msg)

let entry_to_json e =
  Json.Obj
    [
      ("version", Json.Int version);
      ("note", Json.String e.note);
      ("expect", match e.expect with None -> Json.Null | Some c -> Json.String c);
      ("levels", Json.List (List.map (fun l -> Json.String (B.level_name l)) e.levels));
      ("graph", Serial.graph_to_json e.graph);
      ("workload", Serial.workload_to_json e.workload);
      ("mutation", match e.mutation with None -> Json.Null | Some m -> Serial.mutation_to_json m);
    ]

let entry_of_json j =
  let field name =
    match Json.member name j with
    | Some v -> v
    | None -> raise (Serial.Malformed (Printf.sprintf "corpus entry: missing %S" name))
  in
  let opt name = match Json.member name j with Some Json.Null | None -> None | v -> v in
  (match field "version" with
  | Json.Int v when v = version -> ()
  | v -> raise (Serial.Malformed (Printf.sprintf "corpus entry: bad version %s" (Json.to_string v))));
  {
    note = (match field "note" with Json.String s -> s | _ -> "");
    expect =
      (match opt "expect" with
      | Some (Json.String s) -> Some s
      | None -> None
      | Some v -> raise (Serial.Malformed (Printf.sprintf "corpus entry: bad expect %s" (Json.to_string v))));
    levels =
      (match field "levels" with
      | Json.List l -> List.map (function Json.String s -> level_of_name s | _ -> raise (Serial.Malformed "bad level")) l
      | _ -> raise (Serial.Malformed "corpus entry: levels must be a list"));
    graph = Serial.graph_of_json (field "graph");
    workload = Serial.workload_of_json (field "workload");
    mutation = Option.map Serial.mutation_of_json (opt "mutation");
  }

let save ~dir ~name e =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".json") in
  Json.write_file ~pretty:true ~file:path (entry_to_json e);
  path

let load path = entry_of_json (Json.read_file ~file:path)

let load_dir dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f -> (f, load (Filename.concat dir f)))

(* Replay one reproducer and report everything that no longer holds. *)
let replay e =
  let config = { Oracle.default_config with Oracle.levels = e.levels } in
  match e.mutation with
  | Some m ->
      (* A mutant entry pins both directions: the clean build passes
         and the miswired build is caught. *)
      let clean = Oracle.check ~config e.graph ~inputs:e.workload in
      let caught = Oracle.check_mutated ~config m e.graph ~inputs:e.workload <> [] in
      clean
      @
      if caught then []
      else
        [
          {
            Oracle.f_class = "mutant-escaped";
            f_where = "corpus";
            f_detail = Printf.sprintf "%s no longer caught by the oracle" (Mutate.describe m);
          };
        ]
  | None -> (
      let fs = Oracle.check ~config e.graph ~inputs:e.workload in
      match e.expect with
      | None -> fs
      | Some cls ->
          if List.exists (fun (f : Oracle.failure) -> f.Oracle.f_class = cls) fs then []
          else
            [
              {
                Oracle.f_class = "reproducer-vanished";
                f_where = "corpus";
                f_detail =
                  Printf.sprintf "expected failure class %S, oracle reported: %s" cls
                    (match fs with
                    | [] -> "clean pass"
                    | _ -> String.concat "; " (List.map Oracle.failure_to_string fs));
              };
            ])
