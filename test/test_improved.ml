(* Conformance tests for the improved protocol (§3.2): the member
   state machine of Figure 2, the leader state machine of Figure 3,
   and their composition. *)

open Enclaves
module F = Wire.Frame
module P = Wire.Payload

let directory = [ ("alice", "pw-alice"); ("bob", "pw-bob"); ("carol", "pw-carol") ]

let make_cluster ?(policy = Leader.default_policy) () =
  let rng = Prng.Splitmix.create 1001L in
  let leader = Leader.create ~self:"leader" ~rng ~directory ~policy () in
  let members =
    List.map
      (fun (name, password) ->
        (name, Member.create ~self:name ~leader:"leader" ~password ~rng))
      directory
  in
  (leader, members)

let get name members = List.assoc name members

let connect router members names =
  List.iter (fun n -> Test_util.route router (Member.join (get n members))) names

(* --- Member state machine (Figure 2) --- *)

let test_join_emits_auth_init () =
  let _, members = make_cluster () in
  let alice = get "alice" members in
  Alcotest.(check bool) "starts not connected" false (Member.is_connected alice);
  (match Member.state alice with
  | Member.Not_connected -> ()
  | _ -> Alcotest.fail "expected NotConnected");
  match Member.join alice with
  | [ frame ] ->
      Alcotest.(check string) "label" "AuthInitReq"
        (F.label_to_string frame.F.label);
      Alcotest.(check string) "recipient" "leader" frame.F.recipient;
      (match Member.state alice with
      | Member.Waiting_for_key _ -> ()
      | _ -> Alcotest.fail "expected WaitingForKey")
  | _ -> Alcotest.fail "expected exactly one frame"

let test_join_idempotent_while_waiting () =
  let _, members = make_cluster () in
  let alice = get "alice" members in
  let _ = Member.join alice in
  Alcotest.(check int) "second join is a no-op" 0
    (List.length (Member.join alice))

let test_full_handshake () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  let alice = get "alice" members in
  Test_util.route router (Member.join alice);
  Alcotest.(check bool) "member connected" true (Member.is_connected alice);
  Alcotest.(check (list string)) "leader sees alice" [ "alice" ]
    (Leader.members leader);
  (* Key agreement (§5.4): both sides hold the same session key and the
     same latest member nonce. *)
  (match (Member.state alice, Leader.session leader "alice") with
  | Member.Connected (na, ka), Leader.Connected (na', ka') ->
      Alcotest.(check bool) "same nonce" true (Wire.Nonce.equal na na');
      Alcotest.(check bool) "same key" true (Sym_crypto.Key.equal ka ka')
  | _ -> Alcotest.fail "expected both Connected");
  (* Joined event fired. *)
  let joined =
    List.exists
      (function Member.Joined _ -> true | _ -> false)
      (Member.drain_events alice)
  in
  Alcotest.(check bool) "joined event" true joined;
  (* Group key distributed via admin channel. *)
  (match Member.group_key alice with
  | Some { Types.epoch; _ } -> Alcotest.(check int) "epoch 1" 1 epoch
  | None -> Alcotest.fail "no group key after join");
  (* Membership snapshot delivered. *)
  Alcotest.(check (list string)) "view contains alice" [ "alice" ]
    (Member.group_view alice)

let test_handshake_wrong_password () =
  let rng = Prng.Splitmix.create 5L in
  let leader = Leader.create ~self:"leader" ~rng ~directory () in
  let mallory =
    Member.create ~self:"alice" ~leader:"leader" ~password:"WRONG" ~rng
  in
  let router = Test_util.improved_router leader [ ("alice", mallory) ] in
  Test_util.route router (Member.join mallory);
  Alcotest.(check bool) "not connected" false (Member.is_connected mallory);
  Alcotest.(check (list string)) "no members" [] (Leader.members leader)

let test_auth_key_dist_wrong_state () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  let alice = get "alice" members in
  Test_util.route router (Member.join alice);
  let _ = Member.drain_events alice in
  (* Forge an AuthKeyDist toward the connected member: wrong state. *)
  let rng = Prng.Splitmix.create 7L in
  let pa = Sym_crypto.Key.long_term ~user:"alice" ~password:"pw-alice" in
  let payload =
    P.encode_auth_key_dist
      {
        P.l = "leader";
        a = "alice";
        n1 = Wire.Nonce.fresh rng;
        n2 = Wire.Nonce.fresh rng;
        ka = String.make 16 'x';
      }
  in
  let frame =
    Sealed_channel.seal ~rng ~key:pa ~label:F.Auth_key_dist ~sender:"leader"
      ~recipient:"alice" payload
  in
  let replies = Member.receive alice (F.encode frame) in
  Alcotest.(check int) "no reply" 0 (List.length replies);
  Alcotest.(check bool) "rejected" true (Test_util.has_reject_member alice);
  Alcotest.(check bool) "still connected" true (Member.is_connected alice)

let test_auth_key_dist_stale_nonce () =
  let _, members = make_cluster () in
  let alice = get "alice" members in
  let _ = Member.join alice in
  let _ = Member.drain_events alice in
  let rng = Prng.Splitmix.create 8L in
  let pa = Sym_crypto.Key.long_term ~user:"alice" ~password:"pw-alice" in
  (* Correctly sealed but with a nonce that is not alice's N1. *)
  let payload =
    P.encode_auth_key_dist
      {
        P.l = "leader";
        a = "alice";
        n1 = Wire.Nonce.fresh rng;
        n2 = Wire.Nonce.fresh rng;
        ka = String.make 16 'x';
      }
  in
  let frame =
    Sealed_channel.seal ~rng ~key:pa ~label:F.Auth_key_dist ~sender:"leader"
      ~recipient:"alice" payload
  in
  let _ = Member.receive alice (F.encode frame) in
  Alcotest.(check bool) "rejected, still waiting" true
    (match Member.state alice with Member.Waiting_for_key _ -> true | _ -> false);
  let stale =
    List.exists
      (function
        | Member.Rejected { reason = Types.Stale_nonce; _ } -> true | _ -> false)
      (Member.drain_events alice)
  in
  Alcotest.(check bool) "stale nonce reported" true stale

let test_auth_key_dist_identity_mismatch () =
  let _, members = make_cluster () in
  let alice = get "alice" members in
  (match Member.join alice with
  | [ frame ] -> (
      (* Recover alice's real N1 by decrypting as the leader would. *)
      let pa = Sym_crypto.Key.long_term ~user:"alice" ~password:"pw-alice" in
      match Sealed_channel.open_ ~key:pa frame with
      | Ok plaintext -> (
          match P.decode_auth_init plaintext with
          | Ok { P.n1; _ } ->
              let rng = Prng.Splitmix.create 9L in
              (* Correct nonce but wrong leader identity inside. *)
              let payload =
                P.encode_auth_key_dist
                  {
                    P.l = "impostor";
                    a = "alice";
                    n1;
                    n2 = Wire.Nonce.fresh rng;
                    ka = String.make 16 'x';
                  }
              in
              let f =
                Sealed_channel.seal ~rng ~key:pa ~label:F.Auth_key_dist
                  ~sender:"leader" ~recipient:"alice" payload
              in
              let _ = Member.receive alice (F.encode f) in
              let mismatch =
                List.exists
                  (function
                    | Member.Rejected { reason = Types.Identity_mismatch; _ } ->
                        true
                    | _ -> false)
                  (Member.drain_events alice)
              in
              Alcotest.(check bool) "identity mismatch" true mismatch
          | Error e -> Alcotest.fail e)
      | Error _ -> Alcotest.fail "could not open own auth init")
  | _ -> Alcotest.fail "expected one frame")

(* --- Admin channel --- *)

let test_admin_message_flow () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  let alice = get "alice" members in
  Test_util.route router (Member.join alice);
  let _ = Member.drain_events alice in
  let notice = Wire.Admin.Notice "hello admin" in
  Test_util.route router (Leader.enqueue_admin leader "alice" notice);
  let accepted = Member.accepted_admin alice in
  Alcotest.(check bool) "notice accepted" true
    (List.exists (Wire.Admin.equal notice) accepted);
  (* snd/rcv agreement *)
  Alcotest.(check int) "rcv = snd length"
    (List.length (Leader.sent_admin leader "alice"))
    (List.length accepted)

let test_admin_queue_order () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  let alice = get "alice" members in
  Test_util.route router (Member.join alice);
  (* Enqueue several while channel busy: deliver them in one routing
     round so queue discipline is exercised. *)
  let notices = List.init 5 (fun i -> Wire.Admin.Notice (Printf.sprintf "n%d" i)) in
  let frames =
    List.concat_map (fun x -> Leader.enqueue_admin leader "alice" x) notices
  in
  Test_util.route router frames;
  let accepted = Member.accepted_admin alice in
  let sent = Leader.sent_admin leader "alice" in
  Alcotest.(check bool) "rcv prefix of snd" true
    (Test_util.is_prefix Wire.Admin.equal accepted sent);
  (* All five notices arrive, in order, after the join bookkeeping. *)
  let tail =
    List.filteri (fun i _ -> i >= List.length accepted - 5) accepted
  in
  Alcotest.(check bool) "notices in order" true
    (List.for_all2 Wire.Admin.equal tail notices)

let test_admin_replay_rejected () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  let alice = get "alice" members in
  Test_util.route router (Member.join alice);
  (* Capture the admin frame before delivery. *)
  let frames = Leader.enqueue_admin leader "alice" (Wire.Admin.Notice "once") in
  let admin_frame =
    match frames with [ f ] -> f | _ -> Alcotest.fail "expected one admin frame"
  in
  Test_util.route router frames;
  let before = List.length (Member.accepted_admin alice) in
  let _ = Member.drain_events alice in
  (* Replay the very same bytes: the member recognises the duplicate of
     the admin message it just answered and re-sends the stored ack —
     and nothing else. No second acceptance, no state change; feeding
     the duplicate ack to the leader moves nothing either. *)
  let replies = Member.receive alice (F.encode admin_frame) in
  Alcotest.(check int) "stored ack re-sent for duplicate" 1
    (List.length replies);
  Alcotest.(check int) "no duplicate accepted" before
    (List.length (Member.accepted_admin alice));
  let leader_replies =
    List.concat_map (fun f -> Leader.receive leader (F.encode f)) replies
  in
  Alcotest.(check int) "duplicate ack ignored by leader" 0
    (List.length leader_replies);
  (* An older admin frame (not the last answered) is still stale. *)
  let frames2 = Leader.enqueue_admin leader "alice" (Wire.Admin.Notice "two") in
  Test_util.route router frames2;
  let _ = Member.drain_events alice in
  let replies = Member.receive alice (F.encode admin_frame) in
  Alcotest.(check int) "no ack for stale replay" 0 (List.length replies);
  let stale =
    List.exists
      (function
        | Member.Rejected { reason = Types.Stale_nonce; _ } -> true | _ -> false)
      (Member.drain_events alice)
  in
  Alcotest.(check bool) "replay detected as stale" true stale

let test_admin_cross_member_splice () =
  (* An AdminMsg for bob replayed to alice must fail: different session
     key, and the header binding names bob. *)
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice"; "bob" ];
  let alice = get "alice" members in
  let frames = Leader.enqueue_admin leader "bob" (Wire.Admin.Notice "for bob") in
  let bob_frame =
    match frames with [ f ] -> f | _ -> Alcotest.fail "expected one frame"
  in
  let _ = Member.drain_events alice in
  let spliced = { bob_frame with F.recipient = "alice" } in
  let replies = Member.receive alice (F.encode spliced) in
  Alcotest.(check int) "no reply" 0 (List.length replies);
  Alcotest.(check bool) "rejected" true (Test_util.has_reject_member alice);
  Alcotest.(check bool) "not accepted" false
    (List.exists
       (Wire.Admin.equal (Wire.Admin.Notice "for bob"))
       (Member.accepted_admin alice))

let test_admin_forged_wrong_key () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  let alice = get "alice" members in
  Test_util.route router (Member.join alice);
  let _ = Member.drain_events alice in
  let rng = Prng.Splitmix.create 13L in
  let bogus_key = Sym_crypto.Key.fresh Sym_crypto.Key.Session rng in
  let payload =
    P.encode_admin_body
      {
        P.l = "leader";
        a = "alice";
        expected = Wire.Nonce.fresh rng;
        next = Wire.Nonce.fresh rng;
        x = Wire.Admin.Notice "evil";
      }
  in
  let frame =
    Sealed_channel.seal ~rng ~key:bogus_key ~label:F.Admin_msg ~sender:"leader"
      ~recipient:"alice" payload
  in
  let _ = Member.receive alice (F.encode frame) in
  let auth_fail =
    List.exists
      (function
        | Member.Rejected { reason = Types.Auth_failure; _ } -> true | _ -> false)
      (Member.drain_events alice)
  in
  Alcotest.(check bool) "auth failure" true auth_fail

(* --- Leave / close --- *)

let test_leave_flow () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice"; "bob" ];
  let alice = get "alice" members in
  let bob = get "bob" members in
  let _ = Member.drain_events bob in
  Test_util.route router (Member.leave alice);
  Alcotest.(check bool) "alice disconnected" false (Member.is_connected alice);
  Alcotest.(check (list string)) "leader dropped alice" [ "bob" ]
    (Leader.members leader);
  (* Oops event: the discarded session key is reported. *)
  let oops =
    List.exists
      (function Leader.Member_closed { member = "alice"; _ } -> true | _ -> false)
      (Leader.drain_events leader)
  in
  Alcotest.(check bool) "oops on close" true oops;
  (* Bob learns alice left, and gets a fresh group key (rekey-on-leave). *)
  Alcotest.(check (list string)) "bob's view" [ "bob" ] (Member.group_view bob);
  match Member.group_key bob with
  | Some { Types.epoch; _ } ->
      Alcotest.(check bool) "epoch advanced" true (epoch >= 2)
  | None -> Alcotest.fail "bob lost group key"

let test_req_close_replay_ignored () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice" ];
  let alice = get "alice" members in
  let close_frames = Member.leave alice in
  let close_frame =
    match close_frames with [ f ] -> f | _ -> Alcotest.fail "one frame"
  in
  Test_util.route router close_frames;
  let _ = Leader.drain_events leader in
  (* Replay of the close message: there is at most one close per
     session key (§3.2), so the leader must reject. *)
  let replies = Leader.receive leader (F.encode close_frame) in
  Alcotest.(check int) "no reply" 0 (List.length replies);
  Alcotest.(check bool) "rejected" true (Test_util.has_reject_leader leader)

let test_rejoin_gets_fresh_session_key () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice" ];
  let alice = get "alice" members in
  let ka1 =
    match Member.session_key alice with Some k -> k | None -> Alcotest.fail "no key"
  in
  Test_util.route router (Member.leave alice);
  Test_util.route router (Member.join alice);
  Alcotest.(check bool) "reconnected" true (Member.is_connected alice);
  let ka2 =
    match Member.session_key alice with Some k -> k | None -> Alcotest.fail "no key"
  in
  Alcotest.(check bool) "fresh session key" false (Sym_crypto.Key.equal ka1 ka2)

(* --- Leader state machine (Figure 3) --- *)

let test_leader_unknown_sender () =
  let leader, _ = make_cluster () in
  let rng = Prng.Splitmix.create 21L in
  let pa = Sym_crypto.Key.long_term ~user:"mallory" ~password:"x" in
  let payload =
    P.encode_auth_init { P.a = "mallory"; l = "leader"; n1 = Wire.Nonce.fresh rng }
  in
  let frame =
    Sealed_channel.seal ~rng ~key:pa ~label:F.Auth_init_req ~sender:"mallory"
      ~recipient:"leader" payload
  in
  let replies = Leader.receive leader (F.encode frame) in
  Alcotest.(check int) "no reply to unknown" 0 (List.length replies);
  let unknown =
    List.exists
      (function
        | Leader.Rejected { reason = Types.Unknown_sender _; _ } -> true
        | _ -> false)
      (Leader.drain_events leader)
  in
  Alcotest.(check bool) "unknown sender" true unknown

let test_leader_auth_init_while_in_session () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice" ];
  let _ = Leader.drain_events leader in
  (* A second member automaton with alice's credentials tries to join
     while alice is in session (e.g. a replayed AuthInitReq). *)
  let rng = Prng.Splitmix.create 22L in
  let ghost = Member.create ~self:"alice" ~leader:"leader" ~password:"pw-alice" ~rng in
  let frames = Member.join ghost in
  let replies =
    List.concat_map (fun f -> Leader.receive leader (F.encode f)) frames
  in
  Alcotest.(check int) "no reply while in session" 0 (List.length replies);
  Alcotest.(check bool) "rejected" true (Test_util.has_reject_leader leader);
  Alcotest.(check (list string)) "alice still member" [ "alice" ]
    (Leader.members leader)

let test_leader_handshake_restart () =
  (* An AuthInitReq while WaitingForKeyAck restarts the handshake. *)
  let leader, members = make_cluster () in
  let alice = get "alice" members in
  let f1 = Member.join alice in
  let r1 = List.concat_map (fun f -> Leader.receive leader (F.encode f)) f1 in
  Alcotest.(check int) "key dist sent" 1 (List.length r1);
  (* Alice gives up and restarts (new automaton state via leave is not
     possible pre-connection; simulate a fresh AuthInitReq). *)
  let rng = Prng.Splitmix.create 23L in
  let alice2 = Member.create ~self:"alice" ~leader:"leader" ~password:"pw-alice" ~rng in
  let f2 = Member.join alice2 in
  let r2 = List.concat_map (fun f -> Leader.receive leader (F.encode f)) f2 in
  Alcotest.(check int) "second key dist sent" 1 (List.length r2);
  (* Completing the second handshake works. *)
  let replies = List.concat_map (fun f -> Member.receive alice2 (F.encode f)) r2 in
  let _ = List.concat_map (fun f -> Leader.receive leader (F.encode f)) replies in
  Alcotest.(check (list string)) "alice connected via restart" [ "alice" ]
    (Leader.members leader)

let test_leader_duplicate_auth_init_idempotent () =
  (* A duplicated AuthInitReq (same N1) must elicit the SAME
     AuthKeyDist — same session key, same leader nonce — not a
     restarted handshake. *)
  let leader, members = make_cluster () in
  let alice = get "alice" members in
  let init_frames = Member.join alice in
  let r1 = List.concat_map (fun f -> Leader.receive leader (F.encode f)) init_frames in
  let r2 = List.concat_map (fun f -> Leader.receive leader (F.encode f)) init_frames in
  let decode_reply frames =
    match frames with
    | [ f ] -> (
        let pa = Sym_crypto.Key.long_term ~user:"alice" ~password:"pw-alice" in
        match Sealed_channel.open_ ~key:pa f with
        | Ok plaintext -> (
            match P.decode_auth_key_dist plaintext with
            | Ok { P.n2; ka; _ } -> (n2, ka)
            | Error e -> Alcotest.fail e)
        | Error _ -> Alcotest.fail "cannot open reply")
    | _ -> Alcotest.fail "expected one reply"
  in
  let n2a, ka_a = decode_reply r1 in
  let n2b, ka_b = decode_reply r2 in
  Alcotest.(check bool) "same nonce" true (Wire.Nonce.equal n2a n2b);
  Alcotest.(check string) "same session key" ka_a ka_b;
  (* And the handshake still completes. *)
  let acks = List.concat_map (fun f -> Member.receive alice (F.encode f)) r1 in
  let _ = List.concat_map (fun f -> Leader.receive leader (F.encode f)) acks in
  Alcotest.(check (list string)) "connected" [ "alice" ] (Leader.members leader)

let test_leader_rekey_epochs () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice"; "bob" ];
  let alice = get "alice" members and bob = get "bob" members in
  let epoch_of m =
    match Member.group_key m with
    | Some { Types.epoch; _ } -> epoch
    | None -> -1
  in
  let e0 = epoch_of alice in
  Alcotest.(check int) "same epoch" e0 (epoch_of bob);
  Test_util.route router (Leader.rekey leader);
  Alcotest.(check int) "alice advanced" (e0 + 1) (epoch_of alice);
  Alcotest.(check int) "bob advanced" (e0 + 1) (epoch_of bob);
  (* Both share the same key material. *)
  match (Member.group_key alice, Member.group_key bob) with
  | Some a, Some b ->
      Alcotest.(check bool) "same group key" true
        (Sym_crypto.Key.equal a.Types.key b.Types.key)
  | _ -> Alcotest.fail "missing group key"

let test_leader_expel () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice"; "bob"; "carol" ];
  let bob = get "bob" members in
  let _ = Leader.drain_events leader in
  Test_util.route router (Leader.expel leader "bob");
  Alcotest.(check (list string)) "bob gone" [ "alice"; "carol" ]
    (Leader.members leader);
  let expelled =
    List.exists
      (function Leader.Member_expelled { member = "bob"; _ } -> true | _ -> false)
      (Leader.drain_events leader)
  in
  Alcotest.(check bool) "expel event with key (oops)" true expelled;
  (* Remaining members got a fresh key bob never saw. Capture bob's
     key before his local leave resets it. *)
  let bob_key = Member.group_key bob in
  let alice = get "alice" members in
  (match (Member.group_key alice, bob_key) with
  | Some a, Some b ->
      Alcotest.(check bool) "bob's key is stale" false
        (Sym_crypto.Key.equal a.Types.key b.Types.key)
  | _ -> Alcotest.fail "missing keys");
  (* Bob's subsequent traffic is dead: leader has no session. *)
  let frames = Member.leave bob in
  let replies =
    List.concat_map (fun f -> Leader.receive leader (F.encode f)) frames
  in
  Alcotest.(check int) "no reply to expelled" 0 (List.length replies)

(* --- Application traffic --- *)

let test_app_multicast () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice"; "bob"; "carol" ];
  let alice = get "alice" members in
  Test_util.route router (Member.send_app alice "hello group");
  List.iter
    (fun name ->
      let m = get name members in
      Alcotest.(check (list (pair string string)))
        (name ^ " got it")
        [ ("alice", "hello group") ]
        (Test_util.app_received m))
    [ "bob"; "carol" ];
  Alcotest.(check (list (pair string string))) "alice does not echo" []
    (Test_util.app_received alice)

let test_app_from_nonmember_dropped () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice" ];
  (* Carol never joined; she fabricates app data under a random key. *)
  let rng = Prng.Splitmix.create 31L in
  let bogus = Sym_crypto.Key.fresh Sym_crypto.Key.Group rng in
  let payload = P.encode_app_data { P.author = "carol"; body = "spoof" } in
  let frame =
    Sealed_channel.seal_group ~rng ~key:bogus ~label:F.App_data ~sender:"carol"
      ~recipient:"leader" payload
  in
  let replies = Leader.receive leader (F.encode frame) in
  Alcotest.(check int) "not relayed" 0 (List.length replies);
  let alice = get "alice" members in
  Alcotest.(check (list (pair string string))) "alice got nothing" []
    (Test_util.app_received alice)

(* The [App_received] event is the one record of a delivered message:
   once its events are drained, a member holds none of the app data. *)
let test_app_delivery_kept_once () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice"; "bob" ];
  let alice = get "alice" members and bob = get "bob" members in
  let body i = String.make 1024 (Char.chr (Char.code 'a' + (i mod 26))) in
  Test_util.route router (Member.send_app alice (body 0));
  ignore (Member.drain_events bob);
  let before = Obj.reachable_words (Obj.repr bob) in
  for i = 1 to 200 do
    Test_util.route router (Member.send_app alice (body i));
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "message %d delivered once" i)
      [ ("alice", body i) ]
      (Test_util.app_received bob)
  done;
  let grown = Obj.reachable_words (Obj.repr bob) - before in
  if grown >= 100 then
    Alcotest.failf "bob grew by %d words over 200 drained messages" grown

(* --- §5.4 runtime properties over a busy session --- *)

let test_prefix_property_long_run () =
  let leader, members = make_cluster () in
  let router = Test_util.improved_router leader members in
  connect router members [ "alice"; "bob"; "carol" ];
  (* A storm of admin traffic, rekeys and churn. *)
  for i = 1 to 10 do
    Test_util.route router
      (Leader.broadcast_admin leader (Wire.Admin.Notice (string_of_int i)));
    if i mod 3 = 0 then Test_util.route router (Leader.rekey leader)
  done;
  List.iter
    (fun name ->
      let m = get name members in
      let rcv = Member.accepted_admin m in
      let snd = Leader.sent_admin leader name in
      Alcotest.(check bool)
        (name ^ ": rcv prefix of snd")
        true
        (Test_util.is_prefix Wire.Admin.equal rcv snd);
      Alcotest.(check int) (name ^ ": all delivered") (List.length snd)
        (List.length rcv))
    [ "alice"; "bob"; "carol" ]

let suite =
  [
    ( "improved-member (Fig 2)",
      [
        Alcotest.test_case "join emits AuthInitReq" `Quick test_join_emits_auth_init;
        Alcotest.test_case "join idempotent" `Quick test_join_idempotent_while_waiting;
        Alcotest.test_case "full handshake" `Quick test_full_handshake;
        Alcotest.test_case "wrong password fails" `Quick test_handshake_wrong_password;
        Alcotest.test_case "key dist in wrong state" `Quick
          test_auth_key_dist_wrong_state;
        Alcotest.test_case "key dist stale nonce" `Quick
          test_auth_key_dist_stale_nonce;
        Alcotest.test_case "key dist identity mismatch" `Quick
          test_auth_key_dist_identity_mismatch;
      ] );
    ( "improved-admin",
      [
        Alcotest.test_case "admin flow" `Quick test_admin_message_flow;
        Alcotest.test_case "queue order" `Quick test_admin_queue_order;
        Alcotest.test_case "replay rejected" `Quick test_admin_replay_rejected;
        Alcotest.test_case "cross-member splice rejected" `Quick
          test_admin_cross_member_splice;
        Alcotest.test_case "forged wrong key rejected" `Quick
          test_admin_forged_wrong_key;
      ] );
    ( "improved-close",
      [
        Alcotest.test_case "leave flow" `Quick test_leave_flow;
        Alcotest.test_case "close replay ignored" `Quick
          test_req_close_replay_ignored;
        Alcotest.test_case "rejoin fresh key" `Quick
          test_rejoin_gets_fresh_session_key;
      ] );
    ( "improved-leader (Fig 3)",
      [
        Alcotest.test_case "unknown sender" `Quick test_leader_unknown_sender;
        Alcotest.test_case "auth init while in session" `Quick
          test_leader_auth_init_while_in_session;
        Alcotest.test_case "handshake restart" `Quick test_leader_handshake_restart;
        Alcotest.test_case "duplicate auth init idempotent" `Quick
          test_leader_duplicate_auth_init_idempotent;
        Alcotest.test_case "rekey epochs" `Quick test_leader_rekey_epochs;
        Alcotest.test_case "expel" `Quick test_leader_expel;
      ] );
    ( "improved-app",
      [
        Alcotest.test_case "multicast" `Quick test_app_multicast;
        Alcotest.test_case "non-member dropped" `Quick
          test_app_from_nonmember_dropped;
        Alcotest.test_case "delivered data kept once" `Quick
          test_app_delivery_kept_once;
      ] );
    ( "improved-properties",
      [
        Alcotest.test_case "prefix property long run" `Quick
          test_prefix_property_long_run;
      ] );
  ]
