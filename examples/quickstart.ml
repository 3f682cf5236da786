(* Quickstart: a leader and three members run a small group session
   over the simulated network using the improved (§3.2) protocol —
   join, chat, rekey, leave.

   Run with: dune exec examples/quickstart.exe *)

module D = Enclaves.Driver.Improved

let directory =
  [ ("alice", "alice-password"); ("bob", "bob-password"); ("carol", "carol-password") ]

let show_member d name =
  let m = D.member d name in
  let key =
    match Enclaves.Member.group_key m with
    | Some gk -> Format.asprintf "%a" Enclaves.Types.pp_group_key gk
    | None -> "(none)"
  in
  Printf.printf "  %-6s connected=%-5b view=[%s] group_key=%s\n" name
    (Enclaves.Member.is_connected m)
    (String.concat ", " (Enclaves.Member.group_view m))
    key

let () =
  print_endline "== Enclaves quickstart (improved protocol) ==";
  let d = D.create ~seed:2024L ~leader:"leader" ~directory () in

  print_endline "\n-- alice, bob and carol join --";
  List.iter
    (fun who ->
      D.join d who;
      ignore (D.run d))
    [ "alice"; "bob"; "carol" ];
  List.iter (show_member d) [ "alice"; "bob"; "carol" ];

  print_endline "\n-- alice multicasts a message --";
  D.send_app d "alice" "hello, enclave!";
  ignore (D.run d);
  List.iter
    (fun who ->
      let m = D.member d who in
      List.iter
        (function
          | Enclaves.Member.App_received { author; body } ->
              Printf.printf "  %s received <%s: %s>\n" who author body
          | _ -> ())
        (Enclaves.Member.drain_events m))
    [ "bob"; "carol" ];

  print_endline "\n-- leader rekeys the group --";
  D.rekey d;
  ignore (D.run d);
  List.iter (show_member d) [ "alice"; "bob"; "carol" ];

  print_endline "\n-- bob leaves (group rekeys again) --";
  D.leave d "bob";
  ignore (D.run d);
  List.iter (show_member d) [ "alice"; "bob"; "carol" ];

  print_endline "\n-- ordering guarantee (§5.4) --";
  Printf.printf "  every member's accepted-admin log is a prefix of the leader's: %b\n"
    (D.all_prefix_ok d);

  let trace = Netsim.Network.trace (D.net d) in
  Printf.printf "\n%d network events in the trace; done.\n"
    (Netsim.Trace.length trace)
