(* The paper's §7 future work, demonstrated: a succession of group
   managers replaces the single leader. The primary journals its
   trust-critical state and ships every record to the backups over a
   sealed replication channel; when it crashes mid-flight, the first
   backup promotes itself from its replica and re-validates every
   session with a RecoveryChallenge — members redirect to the
   successor keeping their session keys and the group key (warm
   failover), instead of re-running the full handshake.

   Run with: dune exec examples/manager_failover.exe *)

open Enclaves

let directory =
  [ ("alice", "pw-a"); ("bob", "pw-b"); ("carol", "pw-c"); ("dave", "pw-d") ]

let show t label =
  Printf.printf "%s\n  primary=%s connected=[%s] failovers=%d\n" label
    (match Failover.primary t with Some p -> p | None -> "(none)")
    (String.concat ", " (Failover.connected_members t))
    (Failover.failovers t);
  List.iter
    (fun (name, _) ->
      match Failover.manager_of t name with
      | Some mgr ->
          let m = Failover.member t name in
          Printf.printf "    %-6s -> %s (epoch %s)\n" name mgr
            (match Member.group_key m with
            | Some { Types.epoch; _ } -> string_of_int epoch
            | None -> "?")
      | None -> Printf.printf "    %-6s -> (reconnecting)\n" name)
    directory

(* The messages a member delivered since its events were last drained. *)
let app_log t who =
  String.concat "; "
    (List.filter_map
       (function
         | Member.App_received { author; body } -> Some (author ^ ": " ^ body)
         | _ -> None)
       (Member.drain_events (Failover.member t who)))

let run_for t ms =
  ignore
    (Failover.run
       ~until:
         (Netsim.Vtime.add (Netsim.Sim.now (Failover.sim t))
            (Netsim.Vtime.of_ms ms))
       t)

let () =
  print_endline "== Multi-manager Enclaves (paper §7 future work) ==";
  let t =
    Failover.create ~seed:11L ~managers:[ "m0"; "m1"; "m2" ] ~directory ()
  in
  Failover.start t;
  run_for t 1500;
  show t "\n-- after startup --";

  Failover.send_app t "alice" "agenda for today";
  run_for t 500;
  Printf.printf "\n  bob's app log: %s\n" (app_log t "bob");

  print_endline "\n-- crash the primary --";
  Failover.crash_primary t;
  run_for t 4000;
  show t "-- after failover --";

  let stats = Failover.replication_stats t in
  Printf.printf "\n  replication: %s\n"
    (String.concat " "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Replication.named stats)));

  Failover.send_app t "carol" "we survived";
  run_for t 1000;
  Printf.printf "\n  dave's app log after failover: %s\n" (app_log t "dave");

  let ok =
    List.length (Failover.connected_members t) = List.length directory
    && stats.Replication.warm_promotions = 1
    && Failover.failovers t = 0
  in
  Printf.printf "\nRESULT: %s\n"
    (if ok then
       "successor promoted warm; sessions survived without re-handshake"
     else "failover incomplete");
  if not ok then exit 1
