(* End-to-end attack experiments (E5-E7): each §2.3 attack must
   succeed against the legacy protocol and fail against the improved
   protocol — the paper's headline result. *)

open Adversary

let check_outcome ~expect (o : Attacks.outcome) =
  Alcotest.(check bool)
    (Format.asprintf "%a" Attacks.pp_outcome o)
    expect o.Attacks.succeeded

let test_a1_legacy () =
  check_outcome ~expect:true (Attacks.denial_of_service Attacks.Legacy)

let test_a1_improved () =
  check_outcome ~expect:false (Attacks.denial_of_service Attacks.Improved)

let test_a2_legacy () =
  check_outcome ~expect:true (Attacks.forge_mem_removed Attacks.Legacy)

let test_a2_improved () =
  check_outcome ~expect:false (Attacks.forge_mem_removed Attacks.Improved)

let test_a3_legacy () =
  check_outcome ~expect:true (Attacks.rekey_replay Attacks.Legacy)

let test_a3_improved () =
  check_outcome ~expect:false (Attacks.rekey_replay Attacks.Improved)

let test_a4_legacy () =
  check_outcome ~expect:true (Attacks.forced_disconnect Attacks.Legacy)

let test_a4_improved () =
  check_outcome ~expect:false (Attacks.forced_disconnect Attacks.Improved)

let test_full_matrix () =
  let outcomes = Attacks.all () in
  Alcotest.(check int) "eight runs" 8 (List.length outcomes);
  Alcotest.(check bool) "paper's matrix holds" true (Attacks.matrix_ok outcomes)

let test_as_expected () =
  (* The §2.3 rule for one run: the attack wins against Legacy and
     loses against Improved. One run against it spoils the matrix. *)
  List.iter
    (fun (protocol, succeeded, expect) ->
      let o = { Attacks.attack = "A1"; protocol; succeeded; detail = "" } in
      Alcotest.(check bool)
        (Format.asprintf "%a" Attacks.pp_outcome o)
        expect (Attacks.as_expected o))
    [
      (Attacks.Legacy, true, true);
      (Attacks.Legacy, false, false);
      (Attacks.Improved, false, true);
      (Attacks.Improved, true, false);
    ];
  let flipped =
    List.mapi
      (fun i o ->
        if i = 0 then { o with Attacks.succeeded = not o.Attacks.succeeded }
        else o)
      (Attacks.all ())
  in
  Alcotest.(check bool) "one flipped run spoils the matrix" false
    (Attacks.matrix_ok flipped)

let test_matrix_stable_across_seeds () =
  List.iter
    (fun seed ->
      let outcomes = Attacks.all ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "matrix holds for seed %Ld" seed)
        true
        (Attacks.matrix_ok outcomes))
    [ 1L; 2L; 3L; 1000L; 424242L ]

(* --- Knowledge (concrete Analz) ----------------------------------- *)

let test_knowledge_cannot_open_without_key () =
  let k = Knowledge.create () in
  let rng = Prng.Splitmix.create 5L in
  let key = Sym_crypto.Key.fresh Sym_crypto.Key.Group rng in
  let frame =
    Enclaves.Sealed_channel.seal_group ~rng ~key ~label:Wire.Frame.App_data
      ~sender:"a" ~recipient:"l"
      (Wire.Payload.encode_app_data { Wire.Payload.author = "a"; body = "s3cret" })
  in
  Knowledge.observe k (Wire.Frame.encode frame);
  Knowledge.saturate k;
  Alcotest.(check (option (pair string string))) "cannot decrypt" None
    (Knowledge.decrypt_app k (Wire.Frame.encode frame));
  Knowledge.add_key k key;
  Knowledge.saturate k;
  Alcotest.(check (option (pair string string))) "can decrypt with key"
    (Some ("a", "s3cret"))
    (Knowledge.decrypt_app k (Wire.Frame.encode frame))

let test_knowledge_harvests_keys_from_plaintexts () =
  (* Observing a LegacyAuth2 and knowing P_a lets the attacker extract
     K_a and K_g — the transitive closure of Analz. *)
  let rng = Prng.Splitmix.create 6L in
  let pa = Sym_crypto.Key.long_term ~user:"alice" ~password:"pw" in
  let ka = Sym_crypto.Key.fresh Sym_crypto.Key.Session rng in
  let kg = Sym_crypto.Key.fresh Sym_crypto.Key.Group rng in
  let frame =
    Enclaves.Sealed_channel.legacy_seal ~rng ~key:pa
      ~label:Wire.Frame.Legacy_auth2 ~sender:"leader" ~recipient:"alice"
      (Wire.Payload.encode_legacy_auth2
         {
           Wire.Payload.l = "leader";
           a = "alice";
           n1 = Wire.Nonce.fresh rng;
           n2 = Wire.Nonce.fresh rng;
           ka = Sym_crypto.Key.raw ka;
           kg = Sym_crypto.Key.raw kg;
           epoch = 1;
         })
  in
  let k = Knowledge.create () in
  Knowledge.observe k (Wire.Frame.encode frame);
  Knowledge.saturate k;
  Alcotest.(check bool) "without pa: no ka" false (Knowledge.knows_key k ka);
  (* Compromise the long-term key (e.g. alice is an insider). *)
  Knowledge.add_key k pa;
  Knowledge.saturate k;
  Alcotest.(check bool) "with pa: learns ka" true (Knowledge.knows_key k ka);
  Alcotest.(check bool) "with pa: learns kg" true (Knowledge.knows_key k kg)

let test_knowledge_improved_resists_harvest () =
  (* The improved AuthKeyDist is header-bound and carries no group
     key; with P_a compromised the attacker learns K_a but the group
     key never rides under P_a. *)
  let rng = Prng.Splitmix.create 8L in
  let pa = Sym_crypto.Key.long_term ~user:"alice" ~password:"pw" in
  let ka = Sym_crypto.Key.fresh Sym_crypto.Key.Session rng in
  let frame =
    Enclaves.Sealed_channel.seal ~rng ~key:pa ~label:Wire.Frame.Auth_key_dist
      ~sender:"leader" ~recipient:"alice"
      (Wire.Payload.encode_auth_key_dist
         {
           Wire.Payload.l = "leader";
           a = "alice";
           n1 = Wire.Nonce.fresh rng;
           n2 = Wire.Nonce.fresh rng;
           ka = Sym_crypto.Key.raw ka;
         })
  in
  let k = Knowledge.create () in
  Knowledge.observe k (Wire.Frame.encode frame);
  Knowledge.add_key k pa;
  Knowledge.saturate k;
  Alcotest.(check bool) "learns ka (as the paper models)" true
    (Knowledge.knows_key k ka)

let test_knowledge_stats () =
  let k = Knowledge.create () in
  Knowledge.observe k "garbage that is not a frame";
  let observed, keys, plains = Knowledge.stats k in
  Alcotest.(check int) "observed" 1 observed;
  Alcotest.(check int) "keys" 0 keys;
  Alcotest.(check int) "plaintexts" 0 plains

let suite =
  [
    ( "attacks (§2.3 matrix)",
      [
        Alcotest.test_case "A1 vs legacy" `Quick test_a1_legacy;
        Alcotest.test_case "A1 vs improved" `Quick test_a1_improved;
        Alcotest.test_case "A2 vs legacy" `Quick test_a2_legacy;
        Alcotest.test_case "A2 vs improved" `Quick test_a2_improved;
        Alcotest.test_case "A3 vs legacy" `Quick test_a3_legacy;
        Alcotest.test_case "A3 vs improved" `Quick test_a3_improved;
        Alcotest.test_case "A4 vs legacy" `Quick test_a4_legacy;
        Alcotest.test_case "A4 vs improved" `Quick test_a4_improved;
        Alcotest.test_case "full matrix" `Quick test_full_matrix;
        Alcotest.test_case "as_expected per run" `Quick test_as_expected;
        Alcotest.test_case "matrix stable across seeds" `Slow
          test_matrix_stable_across_seeds;
      ] );
    ( "adversary-knowledge",
      [
        Alcotest.test_case "cannot open without key" `Quick
          test_knowledge_cannot_open_without_key;
        Alcotest.test_case "harvests keys transitively" `Quick
          test_knowledge_harvests_keys_from_plaintexts;
        Alcotest.test_case "improved harvest surface" `Quick
          test_knowledge_improved_resists_harvest;
        Alcotest.test_case "stats" `Quick test_knowledge_stats;
      ] );
  ]
