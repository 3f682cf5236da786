module F = Wire.Frame
module P = Wire.Payload
module Net = Netsim.Network
module D = Enclaves.Driver

type protocol = Legacy | Improved

type outcome = {
  attack : string;
  protocol : protocol;
  succeeded : bool;
  detail : string;
}

let protocol_name = function Legacy -> "legacy" | Improved -> "improved"

let pp_outcome fmt { attack; protocol; succeeded; detail } =
  Format.fprintf fmt "%s vs %-8s : %-9s (%s)" attack (protocol_name protocol)
    (if succeeded then "SUCCEEDED" else "defeated")
    detail

let directory =
  [ ("alice", "pw-alice"); ("bob", "pw-bob"); ("eve", "pw-eve") ]

(* Frames seen on the wire with a given label, oldest first. *)
let captured_with_label trace label =
  List.filter_map
    (fun payload ->
      match F.decode payload with
      | Ok frame when frame.F.label = label -> Some (frame, payload)
      | Ok _ | Error _ -> None)
    (Netsim.Trace.payloads trace)

(* --- A1: forged ConnectionDenied -------------------------------- *)

let denial_of_service ?(seed = 7L) protocol =
  let forged_denial =
    F.encode
      (F.make ~label:F.Connection_denied ~sender:"leader" ~recipient:"alice"
         ~body:"")
  in
  match protocol with
  | Legacy ->
      let d = D.Legacy.create ~seed ~leader:"leader" ~directory () in
      let net = D.Legacy.net d in
      (* The attacker watches for alice's join request and immediately
         forges a denial; the injection reaches alice before any
         legitimate leader reply can (one hop vs two). *)
      Net.set_adversary net
        (Some
           (fun ~src ~dst:_ ~payload ->
             (match F.decode payload with
             | Ok { F.label = F.Req_open; _ } when src = "alice" ->
                 Net.inject net ~dst:"alice" forged_denial
             | Ok _ | Error _ -> ());
             Net.Deliver));
      D.Legacy.join d "alice";
      let _ = D.Legacy.run d in
      let alice = D.Legacy.member d "alice" in
      let denied =
        match Enclaves.Legacy_member.state alice with
        | Enclaves.Legacy_member.Denied -> true
        | _ -> false
      in
      {
        attack = "A1";
        protocol;
        succeeded = denied && not (Enclaves.Legacy_member.is_connected alice);
        detail =
          (if denied then "alice aborted her join on a forged denial"
           else "alice connected despite the forgery");
      }
  | Improved ->
      let d = D.Improved.create ~seed ~leader:"leader" ~directory () in
      let net = D.Improved.net d in
      Net.set_adversary net
        (Some
           (fun ~src ~dst:_ ~payload ->
             (match F.decode payload with
             | Ok { F.label = F.Auth_init_req; _ } when src = "alice" ->
                 Net.inject net ~dst:"alice" forged_denial
             | Ok _ | Error _ -> ());
             Net.Deliver));
      D.Improved.join d "alice";
      let _ = D.Improved.run d in
      let alice = D.Improved.member d "alice" in
      let connected = Enclaves.Member.is_connected alice in
      {
        attack = "A1";
        protocol;
        succeeded = not connected;
        detail =
          (if connected then
             "no pre-auth exchange exists; the forged denial was ignored"
           else "alice failed to connect");
      }

(* --- A2: forged mem_removed -------------------------------------- *)

let forge_mem_removed ?(seed = 11L) protocol =
  match protocol with
  | Legacy ->
      let d = D.Legacy.create ~seed ~leader:"leader" ~directory () in
      let net = D.Legacy.net d in
      List.iter
        (fun who ->
          D.Legacy.join d who;
          ignore (D.Legacy.run d))
        [ "alice"; "bob"; "eve" ];
      (* Eve is a live member: she holds K_g legitimately. *)
      let eve = D.Legacy.member d "eve" in
      let kg =
        match Enclaves.Legacy_member.group_key eve with
        | Some { Enclaves.Types.key; _ } -> key
        | None -> failwith "eve has no group key"
      in
      let rng = Prng.Splitmix.create 123L in
      let forged =
        Enclaves.Sealed_channel.legacy_seal ~rng ~key:kg ~label:F.Mem_removed
          ~sender:"leader" ~recipient:"bob"
          (P.encode_member_event { P.who = "alice" })
      in
      Net.inject net ~dst:"bob" (F.encode forged);
      let _ = D.Legacy.run d in
      let bob = D.Legacy.member d "bob" in
      let bob_lost_alice =
        not (List.mem "alice" (Enclaves.Legacy_member.group_view bob))
      in
      let leader_has_alice =
        List.mem "alice" (Enclaves.Legacy_leader.members (D.Legacy.leader d))
      in
      {
        attack = "A2";
        protocol;
        succeeded = bob_lost_alice && leader_has_alice;
        detail =
          (if bob_lost_alice then
             "bob's view dropped alice while she is still a member"
           else "bob's view is intact");
      }
  | Improved ->
      let d = D.Improved.create ~seed ~leader:"leader" ~directory () in
      let net = D.Improved.net d in
      List.iter
        (fun who ->
          D.Improved.join d who;
          ignore (D.Improved.run d))
        [ "alice"; "bob"; "eve" ];
      let eve = D.Improved.member d "eve" in
      let kg =
        match Enclaves.Member.group_key eve with
        | Some { Enclaves.Types.key; _ } -> key
        | None -> failwith "eve has no group key"
      in
      let rng = Prng.Splitmix.create 123L in
      (* Forgery attempt 1: an AdminMsg sealed under the group key eve
         holds (she does not have bob's K_a). *)
      let forged =
        Enclaves.Sealed_channel.seal ~rng ~key:kg ~label:F.Admin_msg
          ~sender:"leader" ~recipient:"bob"
          (P.encode_admin_body
             {
               P.l = "leader";
               a = "bob";
               expected = Wire.Nonce.fresh rng;
               next = Wire.Nonce.fresh rng;
               x = Wire.Admin.Member_left "alice";
             })
      in
      Net.inject net ~dst:"bob" (F.encode forged);
      (* Forgery attempt 2: replay a genuine old AdminMsg to bob. *)
      (match
         List.rev
           (captured_with_label (Net.trace net) F.Admin_msg)
         |> List.find_opt (fun ((f : F.t), _) -> f.F.recipient = "bob")
       with
      | Some (_, payload) -> Net.inject net ~dst:"bob" payload
      | None -> ());
      let _ = D.Improved.run d in
      let bob = D.Improved.member d "bob" in
      let bob_lost_alice =
        not (List.mem "alice" (Enclaves.Member.group_view bob))
      in
      {
        attack = "A2";
        protocol;
        succeeded = bob_lost_alice;
        detail =
          (if bob_lost_alice then "bob's view dropped alice"
           else
             "forgery failed (no K_a) and replay failed (stale nonce); \
              bob's view is intact");
      }

(* --- A3: rekey replay --------------------------------------------- *)

let rekey_replay ?(seed = 13L) protocol =
  match protocol with
  | Legacy ->
      let d = D.Legacy.create ~seed ~leader:"leader" ~directory () in
      let net = D.Legacy.net d in
      let knowledge = Knowledge.create () in
      D.Legacy.join d "alice";
      let _ = D.Legacy.run d in
      D.Legacy.join d "eve";
      let _ = D.Legacy.run d in
      (* Rekey to epoch 2; capture the NewKey frame addressed to alice
         straight off the wire. *)
      D.Legacy.rekey d;
      let _ = D.Legacy.run d in
      let new_key_to_alice =
        captured_with_label (Net.trace net) F.New_key
        |> List.filter (fun ((f : F.t), _) -> f.F.recipient = "alice")
        |> List.rev
      in
      let replay_payload =
        match new_key_to_alice with
        | (_, payload) :: _ -> payload
        | [] -> failwith "no NewKey captured"
      in
      (* Eve leaves, taking the epoch-2 key with her. *)
      let eve = D.Legacy.member d "eve" in
      (match Enclaves.Legacy_member.group_key eve with
      | Some { Enclaves.Types.key; _ } -> Knowledge.add_key knowledge key
      | None -> ());
      D.Legacy.leave d "eve";
      let _ = D.Legacy.run d in
      (* Leader rekeys to epoch 3 — eve no longer receives it. *)
      D.Legacy.rekey d;
      let _ = D.Legacy.run d in
      let alice = D.Legacy.member d "alice" in
      let epoch_before =
        match Enclaves.Legacy_member.group_key alice with
        | Some { Enclaves.Types.epoch; _ } -> epoch
        | None -> -1
      in
      (* Replay the captured epoch-2 NewKey. *)
      Net.inject net ~dst:"alice" replay_payload;
      let _ = D.Legacy.run d in
      let epoch_after =
        match Enclaves.Legacy_member.group_key alice with
        | Some { Enclaves.Types.epoch; _ } -> epoch
        | None -> -1
      in
      (* Alice now speaks; can eve read it? *)
      D.Legacy.send_app d "alice" "the secret plan";
      let _ = D.Legacy.run d in
      let app_frames = captured_with_label (Net.trace net) F.App_data in
      Knowledge.saturate knowledge;
      let stolen =
        List.exists
          (fun (_, payload) ->
            match Knowledge.decrypt_app knowledge payload with
            | Some (_, body) -> body = "the secret plan"
            | None -> false)
          app_frames
      in
      {
        attack = "A3";
        protocol;
        succeeded = epoch_after < epoch_before && stolen;
        detail =
          Printf.sprintf
            "alice's epoch %d -> %d after replay; past member %s her message"
            epoch_before epoch_after
            (if stolen then "decrypted" else "could not decrypt");
      }
  | Improved ->
      let d = D.Improved.create ~seed ~leader:"leader" ~directory () in
      let net = D.Improved.net d in
      let knowledge = Knowledge.create () in
      D.Improved.join d "alice";
      let _ = D.Improved.run d in
      D.Improved.join d "eve";
      let _ = D.Improved.run d in
      D.Improved.rekey d;
      let _ = D.Improved.run d in
      (* Capture every admin message sent to alice during the epoch-2
         rekey window. *)
      let admin_to_alice =
        captured_with_label (Net.trace net) F.Admin_msg
        |> List.filter (fun ((f : F.t), _) -> f.F.recipient = "alice")
      in
      let eve = D.Improved.member d "eve" in
      (match Enclaves.Member.group_key eve with
      | Some { Enclaves.Types.key; _ } -> Knowledge.add_key knowledge key
      | None -> ());
      D.Improved.leave d "eve";
      let _ = D.Improved.run d in
      (* rekey_on_leave already issued epoch 3; rekey once more for
         parity with the legacy scenario. *)
      D.Improved.rekey d;
      let _ = D.Improved.run d in
      let alice = D.Improved.member d "alice" in
      let epoch_before =
        match Enclaves.Member.group_key alice with
        | Some { Enclaves.Types.epoch; _ } -> epoch
        | None -> -1
      in
      List.iter
        (fun (_, payload) -> Net.inject net ~dst:"alice" payload)
        admin_to_alice;
      let _ = D.Improved.run d in
      let epoch_after =
        match Enclaves.Member.group_key alice with
        | Some { Enclaves.Types.epoch; _ } -> epoch
        | None -> -1
      in
      D.Improved.send_app d "alice" "the secret plan";
      let _ = D.Improved.run d in
      let app_frames = captured_with_label (Net.trace net) F.App_data in
      Knowledge.saturate knowledge;
      let stolen =
        List.exists
          (fun (_, payload) ->
            match Knowledge.decrypt_app knowledge payload with
            | Some (_, body) -> body = "the secret plan"
            | None -> false)
          app_frames
      in
      {
        attack = "A3";
        protocol;
        succeeded = epoch_after < epoch_before || stolen;
        detail =
          Printf.sprintf
            "alice's epoch %d -> %d (replays rejected as stale); past member %s"
            epoch_before epoch_after
            (if stolen then "decrypted her message"
             else "cannot read her traffic");
      }

(* --- A4: forced disconnect ---------------------------------------- *)

let forced_disconnect ?(seed = 17L) protocol =
  match protocol with
  | Legacy ->
      let d = D.Legacy.create ~seed ~leader:"leader" ~directory () in
      let net = D.Legacy.net d in
      List.iter
        (fun who ->
          D.Legacy.join d who;
          ignore (D.Legacy.run d))
        [ "alice"; "bob" ];
      (* The close request is plaintext: forge one in alice's name. *)
      let forged =
        F.encode
          (F.make ~label:F.Legacy_req_close ~sender:"alice" ~recipient:"leader"
             ~body:"")
      in
      Net.inject net ~dst:"leader" forged;
      let _ = D.Legacy.run d in
      let ejected =
        not (List.mem "alice" (Enclaves.Legacy_leader.members (D.Legacy.leader d)))
      in
      {
        attack = "A4";
        protocol;
        succeeded = ejected;
        detail =
          (if ejected then "a forged plaintext close ejected alice"
           else "alice survived");
      }
  | Improved ->
      let d = D.Improved.create ~seed ~leader:"leader" ~directory () in
      let net = D.Improved.net d in
      List.iter
        (fun who ->
          D.Improved.join d who;
          ignore (D.Improved.run d))
        [ "alice"; "bob" ];
      (* Attempt 1: replay a genuine ReqClose from an earlier session.
         Set it up: alice leaves (we capture the close) and rejoins. *)
      D.Improved.leave d "alice";
      let _ = D.Improved.run d in
      let old_close =
        captured_with_label (Net.trace net) F.Req_close
        |> List.map snd
      in
      D.Improved.join d "alice";
      let _ = D.Improved.run d in
      List.iter (fun payload -> Net.inject net ~dst:"leader" payload) old_close;
      (* Attempt 2: a ReqClose fabricated under a random key. *)
      let rng = Prng.Splitmix.create 99L in
      let bogus_key = Sym_crypto.Key.fresh Sym_crypto.Key.Session rng in
      let fabricated =
        Enclaves.Sealed_channel.seal ~rng ~key:bogus_key ~label:F.Req_close
          ~sender:"alice" ~recipient:"leader"
          (P.encode_req_close { P.a = "alice"; l = "leader" })
      in
      Net.inject net ~dst:"leader" (F.encode fabricated);
      let _ = D.Improved.run d in
      let still_in =
        List.mem "alice" (Enclaves.Leader.members (D.Improved.leader d))
      in
      {
        attack = "A4";
        protocol;
        succeeded = not still_in;
        detail =
          (if still_in then
             "replayed close (old session key) and fabricated close both \
              rejected"
           else "alice was ejected");
      }

let all ?(seed = 21L) () =
  List.concat_map
    (fun proto ->
      [
        denial_of_service ~seed proto;
        forge_mem_removed ~seed proto;
        rekey_replay ~seed proto;
        forced_disconnect ~seed proto;
      ])
    [ Legacy; Improved ]

let as_expected o =
  match o.protocol with Legacy -> o.succeeded | Improved -> not o.succeeded

let matrix_ok outcomes =
  List.for_all as_expected outcomes && List.length outcomes = 8
