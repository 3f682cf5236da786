(* Conformance tests for the legacy protocol (§2.2), including
   explicit demonstrations that its documented weaknesses exist —
   these "vulnerability tests" pin the baseline behaviour the
   attack experiments (E5-E7) rely on. *)

open Enclaves
module F = Wire.Frame
module P = Wire.Payload

let directory = [ ("alice", "pw-alice"); ("bob", "pw-bob"); ("eve", "pw-eve") ]

let make_cluster ?(policy = Legacy_leader.default_policy) () =
  let rng = Prng.Splitmix.create 2002L in
  let leader = Legacy_leader.create ~self:"leader" ~rng ~directory ~policy () in
  let members =
    List.map
      (fun (name, password) ->
        (name, Legacy_member.create ~self:name ~leader:"leader" ~password ~rng))
      directory
  in
  (leader, members)

let get name members = List.assoc name members

let connect router members names =
  List.iter
    (fun n -> Test_util.route router (Legacy_member.join (get n members)))
    names

let test_preauth_and_join () =
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  let alice = get "alice" members in
  (match Legacy_member.join alice with
  | [ frame ] ->
      Alcotest.(check string) "plaintext req_open" "ReqOpen"
        (F.label_to_string frame.F.label);
      Alcotest.(check string) "empty body" "" frame.F.body;
      Test_util.route router [ frame ]
  | _ -> Alcotest.fail "expected one frame");
  Alcotest.(check bool) "connected" true (Legacy_member.is_connected alice);
  Alcotest.(check (list string)) "leader sees alice" [ "alice" ]
    (Legacy_leader.members leader);
  match Legacy_member.group_key alice with
  | Some { Types.epoch; _ } -> Alcotest.(check int) "got kg epoch 1" 1 epoch
  | None -> Alcotest.fail "no group key"

let test_unknown_user_denied () =
  let rng = Prng.Splitmix.create 3L in
  let leader = Legacy_leader.create ~self:"leader" ~rng ~directory () in
  let mallory =
    Legacy_member.create ~self:"mallory" ~leader:"leader" ~password:"x" ~rng
  in
  let router = Test_util.legacy_router leader [ ("mallory", mallory) ] in
  Test_util.route router (Legacy_member.join mallory);
  Alcotest.(check bool) "denied" true
    (match Legacy_member.state mallory with
    | Legacy_member.Denied -> true
    | _ -> false);
  let denied =
    List.exists
      (function Legacy_member.Join_denied -> true | _ -> false)
      (Legacy_member.drain_events mallory)
  in
  Alcotest.(check bool) "join denied event" true denied

let test_wrong_password_fails () =
  let rng = Prng.Splitmix.create 4L in
  let leader = Legacy_leader.create ~self:"leader" ~rng ~directory () in
  let fake =
    Legacy_member.create ~self:"alice" ~leader:"leader" ~password:"WRONG" ~rng
  in
  let router = Test_util.legacy_router leader [ ("alice", fake) ] in
  Test_util.route router (Legacy_member.join fake);
  Alcotest.(check bool) "not connected" false (Legacy_member.is_connected fake);
  Alcotest.(check (list string)) "no members" [] (Legacy_leader.members leader)

let test_membership_views () =
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  connect router members [ "alice"; "bob" ];
  let alice = get "alice" members and bob = get "bob" members in
  (* Alice learned about bob when he joined; bob got a snapshot. *)
  Alcotest.(check (list string)) "alice sees bob" [ "bob" ]
    (Legacy_member.group_view alice);
  Alcotest.(check (list string)) "bob sees alice" [ "alice" ]
    (Legacy_member.group_view bob)

let test_leave_flow () =
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  connect router members [ "alice"; "bob" ];
  let alice = get "alice" members and bob = get "bob" members in
  Test_util.route router (Legacy_member.leave alice);
  Alcotest.(check bool) "alice out" false (Legacy_member.is_connected alice);
  Alcotest.(check (list string)) "leader dropped alice" [ "bob" ]
    (Legacy_leader.members leader);
  Alcotest.(check (list string)) "bob's view updated" []
    (Legacy_member.group_view bob)

let test_rekey_updates_epoch () =
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  connect router members [ "alice"; "bob" ];
  let alice = get "alice" members in
  Test_util.route router (Legacy_leader.rekey leader);
  match Legacy_member.group_key alice with
  | Some { Types.epoch; _ } -> Alcotest.(check int) "epoch 2" 2 epoch
  | None -> Alcotest.fail "no key"

let test_app_multicast () =
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  connect router members [ "alice"; "bob"; "eve" ];
  let alice = get "alice" members in
  Test_util.route router (Legacy_member.send_app alice "legacy hello");
  List.iter
    (fun name ->
      Alcotest.(check (list (pair string string)))
        (name ^ " received")
        [ ("alice", "legacy hello") ]
        (Test_util.legacy_app_received (get name members)))
    [ "bob"; "eve" ]

(* --- Weakness demonstrations (the baseline for attacks A1-A4) --- *)

let test_weakness_forged_denial () =
  (* A1: a plaintext ConnectionDenied from nowhere aborts a join. *)
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  let alice = get "alice" members in
  (* Alice sends ReqOpen but before the leader's AckOpen arrives, an
     attacker injects a denial. *)
  let _ = Legacy_member.join alice in
  let forged =
    F.make ~label:F.Connection_denied ~sender:"leader" ~recipient:"alice"
      ~body:""
  in
  let _ = Legacy_member.receive alice (F.encode forged) in
  Alcotest.(check bool) "join aborted by forgery" true
    (match Legacy_member.state alice with
    | Legacy_member.Denied -> true
    | _ -> false);
  (* Even the genuine AckOpen now does nothing. *)
  let ack = F.make ~label:F.Ack_open ~sender:"leader" ~recipient:"alice" ~body:"" in
  let replies = Legacy_member.receive alice (F.encode ack) in
  Alcotest.(check int) "dead to the real leader" 0 (List.length replies);
  ignore router

let test_weakness_forged_mem_removed () =
  (* A2: any group-key holder can forge membership events. *)
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  connect router members [ "alice"; "bob"; "eve" ];
  let bob = get "bob" members in
  let eve = get "eve" members in
  (* Eve, a member, forges "alice left" toward bob using K_g. *)
  let kg =
    match Legacy_member.group_key eve with
    | Some { Types.key; _ } -> key
    | None -> Alcotest.fail "eve has no group key"
  in
  let rng = Prng.Splitmix.create 55L in
  let forged =
    Sealed_channel.legacy_seal ~rng ~key:kg ~label:F.Mem_removed ~sender:"leader"
      ~recipient:"bob"
      (P.encode_member_event { P.who = "alice" })
  in
  let _ = Legacy_member.receive bob (F.encode forged) in
  Alcotest.(check (list string)) "bob's view corrupted" [ "eve" ]
    (Legacy_member.group_view bob);
  (* The leader still believes alice is in. *)
  Alcotest.(check bool) "leader unaware" true
    (List.mem "alice" (Legacy_leader.members leader));
  ignore router

let test_weakness_new_key_replay () =
  (* A3: a replayed NewKey reverts the member's group key. *)
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  connect router members [ "alice" ];
  let alice = get "alice" members in
  (* Rekey to epoch 2, capturing the NewKey frame off the wire. *)
  let frames = Legacy_leader.rekey leader in
  let new_key_frame =
    match frames with [ f ] -> f | _ -> Alcotest.fail "one NewKey expected"
  in
  Test_util.route router frames;
  (* Rekey again to epoch 3. *)
  Test_util.route router (Legacy_leader.rekey leader);
  (match Legacy_member.group_key alice with
  | Some { Types.epoch; _ } -> Alcotest.(check int) "on epoch 3" 3 epoch
  | None -> Alcotest.fail "no key");
  (* Replay the epoch-2 NewKey: alice accepts and reverts. *)
  let _ = Legacy_member.receive alice (F.encode new_key_frame) in
  match Legacy_member.group_key alice with
  | Some { Types.epoch; _ } -> Alcotest.(check int) "reverted to epoch 2" 2 epoch
  | None -> Alcotest.fail "no key after replay"

let test_weakness_forged_req_close () =
  (* A4: a plaintext LegacyReqClose with a forged sender ejects a
     member. *)
  let leader, members = make_cluster () in
  let router = Test_util.legacy_router leader members in
  connect router members [ "alice"; "bob" ];
  let forged =
    F.make ~label:F.Legacy_req_close ~sender:"alice" ~recipient:"leader" ~body:""
  in
  Test_util.route router [ forged ];
  Alcotest.(check (list string)) "alice ejected by forgery" [ "bob" ]
    (Legacy_leader.members leader)

(* --- Sanity: the improved protocol resists the same manipulations
   (full attack scenarios live in test_attacks.ml) --- *)

let test_improved_ignores_denial () =
  let rng = Prng.Splitmix.create 66L in
  let leader =
    Leader.create ~self:"leader" ~rng ~directory:[ ("alice", "pw") ] ()
  in
  let alice = Member.create ~self:"alice" ~leader:"leader" ~password:"pw" ~rng in
  let router = Test_util.improved_router leader [ ("alice", alice) ] in
  let join_frames = Member.join alice in
  (* Denial arrives first — the improved member has no pre-auth state
     to poison and ignores the unknown label. *)
  let forged =
    F.make ~label:F.Connection_denied ~sender:"leader" ~recipient:"alice" ~body:""
  in
  let _ = Member.receive alice (F.encode forged) in
  Test_util.route router join_frames;
  Alcotest.(check bool) "join completes anyway" true (Member.is_connected alice)

let suite =
  [
    ( "legacy-protocol (§2.2)",
      [
        Alcotest.test_case "preauth and join" `Quick test_preauth_and_join;
        Alcotest.test_case "unknown user denied" `Quick test_unknown_user_denied;
        Alcotest.test_case "wrong password fails" `Quick test_wrong_password_fails;
        Alcotest.test_case "membership views" `Quick test_membership_views;
        Alcotest.test_case "leave flow" `Quick test_leave_flow;
        Alcotest.test_case "rekey updates epoch" `Quick test_rekey_updates_epoch;
        Alcotest.test_case "app multicast" `Quick test_app_multicast;
      ] );
    ( "legacy-weaknesses (§2.3)",
      [
        Alcotest.test_case "A1 forged denial" `Quick test_weakness_forged_denial;
        Alcotest.test_case "A2 forged mem_removed" `Quick
          test_weakness_forged_mem_removed;
        Alcotest.test_case "A3 new_key replay" `Quick test_weakness_new_key_replay;
        Alcotest.test_case "A4 forged req_close" `Quick
          test_weakness_forged_req_close;
        Alcotest.test_case "improved ignores denial" `Quick
          test_improved_ignores_denial;
      ] );
  ]
