module Card = Pld_platform.Card
module Xclbin = Pld_platform.Xclbin
module Fault = Pld_faults.Fault
module N = Pld_netlist.Netlist
module Telemetry = Pld_telemetry.Telemetry

type recovery_event =
  | Load_retry of { inst : string; page : int; attempt : int; backoff_seconds : float }
  | Spare_relink of { inst : string; from_page : int; to_page : int; relink_seconds : float }
  | Softcore_fallback of { inst : string; from_page : int; to_page : int; relink_seconds : float }

type deploy_result = {
  seconds : float;
  app : Build.app;
  recovery : recovery_event list;
  degraded : bool;
}

exception Deploy_failed of string

let deploy_failed fmt = Printf.ksprintf (fun m -> raise (Deploy_failed m)) fmt

let describe_recovery = function
  | Load_retry { inst; page; attempt; backoff_seconds } ->
      Printf.sprintf "retry   %s: page %d readback failed (attempt %d, backoff %.1f ms)" inst page
        attempt (backoff_seconds *. 1000.0)
  | Spare_relink { inst; from_page; to_page; relink_seconds } ->
      Printf.sprintf "relink  %s: page %d defective -> spare page %d (%.2f s relink)" inst
        from_page to_page relink_seconds
  | Softcore_fallback { inst; from_page; to_page; relink_seconds } ->
      Printf.sprintf "degrade %s: page %d defective, no spare fits -> softcore on page %d (%.2f s)"
        inst from_page to_page relink_seconds

(* First retry waits 2 ms, then doubles: the bounded exponential
   backoff a real loader daemon would use between DFX attempts. *)
let backoff_seconds attempt = 0.002 *. (2.0 ** float_of_int (attempt - 1))

let xclbin_of = function
  | Build.Hw_page h -> h.Flow.xclbin
  | Build.Soft_page s -> s.Flow.xclbin0

let demand_of = function
  | Build.Hw_page h -> N.total_res h.Flow.impl.Pld_hls.Hls_compile.netlist
  | Build.Soft_page _ -> Build.softcore_demand

(* Recompile an operator for a different page, one rung of the
   recovery ladder. [soften] drops a HW operator to the -O0 softcore
   build (the bottom rung); the modeled recompile seconds ride on the
   deploy clock, which is exactly the honesty the report needs. *)
let relink_operator ~soften (fp : Pld_fabric.Floorplan.t) ~inst ~page compiled =
  match (compiled, soften) with
  | Build.Soft_page s, _ ->
      let s' = Flow.compile_o0_operator ~page ~inst s.Flow.op0 in
      (Build.Soft_page s', s'.Flow.riscv_seconds)
  | Build.Hw_page h, false ->
      let h' = Flow.compile_o1_operator ~impl:h.Flow.impl fp ~page ~inst h.Flow.op in
      (* The HLS result is reused, so only the page-scoped share of the
         flow is paid again. *)
      (Build.Hw_page h', Flow.total_seconds h'.Flow.times -. h'.Flow.times.Flow.hls)
  | Build.Hw_page h, true ->
      let s = Flow.compile_o0_operator ~page ~inst h.Flow.op in
      (Build.Soft_page s, s.Flow.riscv_seconds)

let deploy ?faults ?(max_retries = 3) card (app : Build.app) =
  (match faults with Some f -> Card.set_faults card (Some f) | None -> ());
  let tele = Telemetry.default in
  Telemetry.with_span tele ~cat:"loader"
    ~attrs:[ ("level", Build.level_name app.Build.level) ]
    "deploy"
  @@ fun () ->
  match app.Build.level with
  | Build.O3 | Build.Vitis ->
      let mono = Build.monolithic_exn app in
      let seconds = Card.load card mono.Flow.xclbin3 in
      Telemetry.set_gauge (Telemetry.gauge tele "loader.seconds") seconds;
      { seconds; app; recovery = []; degraded = false }
  | Build.O0 | Build.O1 ->
      let fp = app.Build.fp in
      let t = ref (Card.load card (Flow.overlay_xclbin fp)) in
      let recovery = ref [] in
      let degraded = ref false in
      (* Pages found bad during this deploy join the defect map so no
         spare search ever lands on them again. *)
      let defective =
        ref (match faults with Some f -> (Fault.spec f).Fault.defective_pages | None -> [])
      in
      let assignment = ref app.Build.assignment in
      (* Load one container and readback-verify, retrying with backoff.
         Returns [true] once a load verifies, [false] when the page is
         given up on. *)
      let load_verified ~inst ~page xb =
        let rec go attempt =
          t := !t +. Card.load card xb;
          if Card.readback_ok card xb then true
          else if attempt <= max_retries then begin
            let backoff = backoff_seconds attempt in
            t := !t +. backoff;
            recovery := Load_retry { inst; page; attempt; backoff_seconds = backoff } :: !recovery;
            Telemetry.incr (Telemetry.counter tele "loader.retries");
            Telemetry.instant tele ~cat:"loader"
              ~attrs:
                [ ("inst", inst); ("page", string_of_int page); ("attempt", string_of_int attempt) ]
              "load-retry";
            go (attempt + 1)
          end
          else false
        in
        go 1
      in
      let operators =
        List.map
          (fun (inst, compiled) ->
            let page = List.assoc inst !assignment in
            Telemetry.with_span tele ~cat:"loader"
              ~attrs:[ ("page", string_of_int page) ]
              ("load:" ^ inst)
            @@ fun () ->
            if load_verified ~inst ~page (xclbin_of compiled) then (inst, compiled)
            else begin
              (* The page keeps garbling past the retry budget: treat
                 it as defective and walk the recovery ladder — spare
                 page first, then the softcore build, before giving up
                 and sending the developer back to a full recompile. *)
              defective := page :: !defective;
              let rec try_spares ~soften =
                let used = List.filter_map (fun (i, p) -> if i = inst then None else Some p) !assignment in
                let demand = if soften then Build.softcore_demand else demand_of compiled in
                match Assign.spare_pages ~defective:!defective fp ~used demand with
                | [] ->
                    if soften then
                      deploy_failed
                        "%s: page %d defective and no clean page left (defect map: %s) — full recompile needed"
                        inst page
                        (String.concat ", " (List.map string_of_int (List.sort_uniq compare !defective)))
                    else begin
                      (* No spare fits the HW build; drop a rung. *)
                      degraded := true;
                      try_spares ~soften:true
                    end
                | spare :: _ ->
                    let compiled', relink_seconds =
                      Telemetry.with_span tele ~cat:"loader"
                        ~attrs:
                          [ ("from_page", string_of_int page); ("to_page", string_of_int spare) ]
                        ("relink:" ^ inst)
                        (fun () -> relink_operator ~soften fp ~inst ~page:spare compiled)
                    in
                    t := !t +. relink_seconds;
                    if load_verified ~inst ~page:spare (xclbin_of compiled') then begin
                      let softened =
                        soften && (match compiled with Build.Hw_page _ -> true | _ -> false)
                      in
                      Telemetry.incr
                        (Telemetry.counter tele
                           (if softened then "loader.softcore_fallbacks" else "loader.relinks"));
                      recovery :=
                        (if softened then
                           Softcore_fallback { inst; from_page = page; to_page = spare; relink_seconds }
                         else Spare_relink { inst; from_page = page; to_page = spare; relink_seconds })
                        :: !recovery;
                      assignment := List.map (fun (i, p) -> if i = inst then (i, spare) else (i, p)) !assignment;
                      (inst, compiled')
                    end
                    else begin
                      defective := spare :: !defective;
                      try_spares ~soften
                    end
              in
              try_spares ~soften:false
            end)
          app.Build.operators
      in
      let app' = { app with Build.assignment = !assignment; operators } in
      (* Link: program every source leaf's routing registers with
         config packets through the network (retransmitting any that
         the injected link faults eat). *)
      let links = Runner.noc_links app' [] in
      let net = Card.noc card in
      let cycles =
        Telemetry.with_span tele ~cat:"loader"
          ~attrs:[ ("links", string_of_int (List.length links)) ]
          "link" (fun () ->
            match Pld_noc.Traffic.config_cycles net links with
            | cycles ->
                Pld_noc.Traffic.configure_links net links;
                cycles
            | exception Pld_noc.Bft.Undelivered msg -> deploy_failed "linking failed: %s" msg)
      in
      t := !t +. (float_of_int cycles /. 200.0e6);
      Telemetry.set_gauge (Telemetry.gauge tele "loader.seconds") !t;
      { seconds = !t; app = app'; recovery = List.rev !recovery; degraded = !degraded }

let describe_artifacts (app : Build.app) =
  match app.Build.level with
  | Build.O3 | Build.Vitis -> Xclbin.describe (Build.monolithic_exn app).Flow.xclbin3
  | Build.O0 | Build.O1 ->
      String.concat "\n"
        (Xclbin.describe (Flow.overlay_xclbin app.Build.fp)
        :: List.map
             (fun (_, c) ->
               Xclbin.describe
                 (match c with Build.Hw_page h -> h.Flow.xclbin | Build.Soft_page s -> s.Flow.xclbin0))
             app.Build.operators)
