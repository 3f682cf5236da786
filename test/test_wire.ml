(* Tests for the wire layer: nonces, admin payloads, sealed payload
   structures and frames. *)

open Wire

let rng () = Prng.Splitmix.create 77L

let test_nonce_basics () =
  let g = rng () in
  let n1 = Nonce.fresh g and n2 = Nonce.fresh g in
  Alcotest.(check bool) "fresh nonces differ" false (Nonce.equal n1 n2);
  Alcotest.(check bool) "self equal" true (Nonce.equal n1 n1);
  Alcotest.(check int) "size" Nonce.size (String.length (Nonce.raw n1));
  let n1' = Nonce.of_raw (Nonce.raw n1) in
  Alcotest.(check bool) "roundtrip" true (Nonce.equal n1 n1');
  Alcotest.check_raises "bad size"
    (Invalid_argument "Nonce.of_raw: nonce must be 16 bytes") (fun () ->
      ignore (Nonce.of_raw "short"))

let admin_examples =
  [
    Admin.New_group_key { key = String.make 16 'k'; epoch = 3 };
    Admin.Member_joined "alice";
    Admin.Member_left "bob";
    Admin.Member_expelled "mallory";
    Admin.Membership_snapshot [];
    Admin.Membership_snapshot [ "a"; "b"; "c" ];
    Admin.Notice "rekey at noon";
  ]

let test_admin_roundtrip () =
  List.iter
    (fun x ->
      match Admin.decode (Admin.encode x) with
      | Ok x' ->
          Alcotest.(check bool)
            (Format.asprintf "%a" Admin.pp x)
            true (Admin.equal x x')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    admin_examples

let test_admin_garbage () =
  List.iter
    (fun s ->
      match Admin.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage admin decoded")
    [ ""; "\xff"; "\x01"; "\x05\xff\xff\xff\xff" ]

let test_admin_trailing_rejected () =
  let enc = Admin.encode (Admin.Member_joined "alice") ^ "x" in
  match Admin.decode enc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

let test_payload_roundtrips () =
  let g = rng () in
  let n () = Nonce.fresh g in
  let check name enc dec eq v =
    match dec (enc v) with
    | Ok v' -> Alcotest.(check bool) name true (eq v v')
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  check "auth_init" Payload.encode_auth_init Payload.decode_auth_init ( = )
    { Payload.a = "alice"; l = "leader"; n1 = n () };
  check "auth_key_dist" Payload.encode_auth_key_dist Payload.decode_auth_key_dist
    ( = )
    { Payload.l = "leader"; a = "alice"; n1 = n (); n2 = n (); ka = String.make 16 'K' };
  check "auth_ack_key" Payload.encode_auth_ack_key Payload.decode_auth_ack_key
    ( = )
    { Payload.n2 = n (); n3 = n () };
  check "admin_body" Payload.encode_admin_body Payload.decode_admin_body ( = )
    {
      Payload.l = "leader";
      a = "alice";
      expected = n ();
      next = n ();
      x = Admin.Member_joined "bob";
    };
  check "admin_ack" Payload.encode_admin_ack Payload.decode_admin_ack ( = )
    { Payload.a = "alice"; l = "leader"; echo = n (); next = n () };
  check "req_close" Payload.encode_req_close Payload.decode_req_close ( = )
    { Payload.a = "alice"; l = "leader" };
  check "legacy_auth2" Payload.encode_legacy_auth2 Payload.decode_legacy_auth2
    ( = )
    {
      Payload.l = "leader";
      a = "alice";
      n1 = n ();
      n2 = n ();
      ka = String.make 16 'S';
      kg = String.make 16 'G';
      epoch = 1;
    };
  check "legacy_auth3" Payload.encode_legacy_auth3 Payload.decode_legacy_auth3
    ( = )
    { Payload.n2 = n () };
  check "legacy_new_key" Payload.encode_legacy_new_key
    Payload.decode_legacy_new_key ( = )
    { Payload.kg = String.make 16 'N'; epoch = 4 };
  check "legacy_key_ack" Payload.encode_legacy_key_ack
    Payload.decode_legacy_key_ack ( = )
    { Payload.kg = String.make 16 'N' };
  check "member_event" Payload.encode_member_event Payload.decode_member_event
    ( = )
    { Payload.who = "carol" }

let test_payload_tag_confusion () =
  (* A payload encoded as one kind must not decode as another. *)
  let g = rng () in
  let init =
    Payload.encode_auth_init { Payload.a = "a"; l = "l"; n1 = Nonce.fresh g }
  in
  (match Payload.decode_auth_ack_key init with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "auth_init decoded as auth_ack_key");
  (match Payload.decode_req_close init with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "auth_init decoded as req_close");
  match Payload.decode_admin_body init with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "auth_init decoded as admin_body"

let test_frame_roundtrip_all_labels () =
  List.iter
    (fun label ->
      let f = Frame.make ~label ~sender:"s" ~recipient:"r" ~body:"body!" in
      match Frame.decode (Frame.encode f) with
      | Ok f' ->
          Alcotest.(check bool)
            (Frame.label_to_string label)
            true (Frame.equal f f')
      | Error e -> Alcotest.fail e)
    Frame.all_labels

let test_frame_garbage () =
  List.iter
    (fun s ->
      match Frame.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage frame decoded")
    [ ""; "\x00"; "\xff\x00\x00\x00\x00"; "\x01\x00" ]

let test_frame_ad_binds_header () =
  let f1 =
    Frame.make ~label:Frame.Admin_msg ~sender:"l" ~recipient:"a" ~body:""
  in
  let f2 = { f1 with Frame.label = Frame.Admin_ack } in
  let f3 = { f1 with Frame.sender = "x" } in
  let f4 = { f1 with Frame.recipient = "b" } in
  Alcotest.(check bool) "label changes ad" true (Frame.ad f1 <> Frame.ad f2);
  Alcotest.(check bool) "sender changes ad" true (Frame.ad f1 <> Frame.ad f3);
  Alcotest.(check bool) "recipient changes ad" true (Frame.ad f1 <> Frame.ad f4);
  Alcotest.(check string) "body does not change ad" (Frame.ad f1)
    (Frame.ad { f1 with Frame.body = "zzz" });
  Alcotest.(check string) "header_ad agrees" (Frame.ad f1)
    (Frame.header_ad ~label:Frame.Admin_msg ~sender:"l" ~recipient:"a")

let test_label_tags_distinct () =
  let module S = Set.Make (String) in
  let strings = List.map Frame.label_to_string Frame.all_labels in
  Alcotest.(check int) "label strings unique"
    (List.length Frame.all_labels)
    (S.cardinal (S.of_list strings));
  let encs =
    List.map
      (fun label ->
        Frame.encode (Frame.make ~label ~sender:"s" ~recipient:"r" ~body:""))
      Frame.all_labels
  in
  Alcotest.(check int) "label encodings unique"
    (List.length Frame.all_labels)
    (S.cardinal (S.of_list encs))

(* The texts a peer's malformed input is rejected with, one per
   decoder: the frame, admin, sealed-payload and AEAD envelopes. *)
let test_decode_error_texts () =
  let error name expected = function
    | Ok _ -> Alcotest.fail (name ^ " decoded")
    | Error e -> Alcotest.(check string) name expected e
  in
  let frame =
    Frame.encode
      (Frame.make ~label:Frame.Admin_msg ~sender:"leader" ~recipient:"alice"
         ~body:"body!")
  in
  error "truncated frame" "truncated while reading length-prefixed bytes"
    (Frame.decode (String.sub frame 0 (String.length frame - 2)));
  error "unknown label" "malformed unknown frame label 255"
    (Frame.decode "\xff\x00\x00\x00\x00");
  error "trailing bytes" "malformed trailing bytes after message"
    (Admin.decode (Admin.encode (Admin.Member_joined "alice") ^ "x"));
  let init =
    Payload.encode_auth_init
      { Payload.a = "a"; l = "l"; n1 = Nonce.fresh (rng ()) }
  in
  error "wrong payload tag" "malformed payload tag 1, expected 3"
    (Payload.decode_auth_ack_key init);
  error "truncated sealed blob" "truncated while reading u16"
    (Sym_crypto.Aead.decode "")

let qcheck_tests =
  [
    QCheck.Test.make ~name:"frame roundtrip" ~count:300
      QCheck.(triple small_string small_string string)
      (fun (sender, recipient, body) ->
        let f = Frame.make ~label:Frame.App_data ~sender ~recipient ~body in
        Frame.decode (Frame.encode f) = Ok f);
    QCheck.Test.make ~name:"admin notice roundtrip" ~count:300 QCheck.string
      (fun s ->
        match Admin.decode (Admin.encode (Admin.Notice s)) with
        | Ok (Admin.Notice s') -> s = s'
        | _ -> false);
    QCheck.Test.make ~name:"snapshot roundtrip" ~count:200
      QCheck.(small_list small_string)
      (fun ms ->
        match Admin.decode (Admin.encode (Admin.Membership_snapshot ms)) with
        | Ok (Admin.Membership_snapshot ms') -> ms = ms'
        | _ -> false);
  ]

let suite =
  [
    ( "wire",
      [
        Alcotest.test_case "nonce basics" `Quick test_nonce_basics;
        Alcotest.test_case "admin roundtrip" `Quick test_admin_roundtrip;
        Alcotest.test_case "admin garbage" `Quick test_admin_garbage;
        Alcotest.test_case "admin trailing rejected" `Quick
          test_admin_trailing_rejected;
        Alcotest.test_case "payload roundtrips" `Quick test_payload_roundtrips;
        Alcotest.test_case "payload tag confusion" `Quick
          test_payload_tag_confusion;
        Alcotest.test_case "frame roundtrip all labels" `Quick
          test_frame_roundtrip_all_labels;
        Alcotest.test_case "frame garbage" `Quick test_frame_garbage;
        Alcotest.test_case "frame ad binds header" `Quick
          test_frame_ad_binds_header;
        Alcotest.test_case "label tags distinct" `Quick test_label_tags_distinct;
        Alcotest.test_case "decode error texts" `Quick test_decode_error_texts;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
