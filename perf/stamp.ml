(* Where a result came from: the source revision and the machine, so
   results from different commits and boxes can be told apart. *)

module Json = Pld_telemetry.Json

let read file = String.trim (In_channel.with_open_text file In_channel.input_all)

(* The checked-out commit, read from [.git] in the working directory
   without running git; "unknown" outside a repository. *)
let git_rev () =
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] when Sys.file_exists (Filename.concat ".git" ref_) -> read (Filename.concat ".git" ref_)
    | [ "ref:"; ref_ ] -> (
        let packed = String.split_on_char '\n' (read ".git/packed-refs") in
        match List.find_map (fun l -> match String.split_on_char ' ' l with [ sha; r ] when r = ref_ -> Some sha | _ -> None) packed with
        | Some sha -> sha
        | None -> "unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.trim (String.sub l 0 i) = "model name" ->
               Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"
  with Sys_error _ -> "unknown"

let json () =
  Json.Obj
    [
      ("rev", Json.String (git_rev ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("cpu", Json.String (cpu_model ()));
      ("ocaml", Json.String Sys.ocaml_version);
    ]
