(* Tests for the public-key authentication variant (paper footnote 1):
   the toy DH substrate and the DH-derived long-term keys driving the
   unchanged §3.2 protocol. *)

open Enclaves
module Dh = Sym_crypto.Dh

let test_dh_agreement () =
  let rng = Prng.Splitmix.create 1L in
  for _ = 1 to 20 do
    let a = Dh.generate rng and b = Dh.generate rng in
    Alcotest.(check int64) "shared secrets agree"
      (Dh.shared_secret ~priv:a.Dh.priv ~pub:b.Dh.pub)
      (Dh.shared_secret ~priv:b.Dh.priv ~pub:a.Dh.pub)
  done

let test_dh_distinct_pairs_distinct_secrets () =
  let rng = Prng.Splitmix.create 2L in
  let a = Dh.generate rng and b = Dh.generate rng and c = Dh.generate rng in
  let ab = Dh.shared_secret ~priv:a.Dh.priv ~pub:b.Dh.pub in
  let ac = Dh.shared_secret ~priv:a.Dh.priv ~pub:c.Dh.pub in
  Alcotest.(check bool) "different peers, different secrets" true (ab <> ac)

let test_dh_rejects_degenerate_pub () =
  let rng = Prng.Splitmix.create 3L in
  let a = Dh.generate rng in
  List.iter
    (fun bad ->
      match Dh.shared_secret ~priv:a.Dh.priv ~pub:bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "degenerate public value accepted")
    [ 0L; 1L; Int64.sub Dh.p 1L; Dh.p ]

let test_mul_mod_matches_small () =
  (* Against naive multiplication for values where int64 cannot
     overflow. *)
  let rng = Prng.Splitmix.create 4L in
  for _ = 1 to 1000 do
    let a = Int64.of_int (Prng.Splitmix.next_int rng 1_000_000) in
    let b = Int64.of_int (Prng.Splitmix.next_int rng 1_000_000) in
    Alcotest.(check int64) "agrees with naive"
      (Int64.rem (Int64.mul a b) Dh.p)
      (Dh.mul_mod a b)
  done

let test_pow_mod_basics () =
  Alcotest.(check int64) "b^0 = 1" 1L (Dh.pow_mod 12345L 0L);
  Alcotest.(check int64) "b^1 = b" 12345L (Dh.pow_mod 12345L 1L);
  Alcotest.(check int64) "g^2 = g*g" (Dh.mul_mod Dh.g Dh.g) (Dh.pow_mod Dh.g 2L);
  (* Fermat: g^(p-1) = 1 mod p for prime p. *)
  Alcotest.(check int64) "fermat" 1L (Dh.pow_mod Dh.g (Int64.sub Dh.p 1L))

let test_pairwise_symmetric () =
  let rng = Prng.Splitmix.create 5L in
  let alice = Pk_auth.generate "alice" rng in
  let leader = Pk_auth.generate "leader" rng in
  let k1 =
    Pk_auth.pairwise ~self:alice ~peer:"leader" ~peer_pub:(Pk_auth.pub leader)
  in
  let k2 =
    Pk_auth.pairwise ~self:leader ~peer:"alice" ~peer_pub:(Pk_auth.pub alice)
  in
  Alcotest.(check bool) "both sides derive the same P_a" true
    (Sym_crypto.Key.equal k1 k2)

let test_pk_handshake_end_to_end () =
  let rng = Prng.Splitmix.create 6L in
  let lid = Pk_auth.generate "leader" rng in
  let aid = Pk_auth.generate "alice" rng in
  let bid = Pk_auth.generate "bob" rng in
  let leader =
    Pk_auth.leader lid
      ~directory:[ ("alice", Pk_auth.pub aid); ("bob", Pk_auth.pub bid) ]
      ~rng ()
  in
  let alice = Pk_auth.member aid ~leader:"leader" ~leader_pub:(Pk_auth.pub lid) ~rng in
  let bob = Pk_auth.member bid ~leader:"leader" ~leader_pub:(Pk_auth.pub lid) ~rng in
  let router =
    Test_util.improved_router leader [ ("alice", alice); ("bob", bob) ]
  in
  Test_util.route router (Member.join alice);
  Test_util.route router (Member.join bob);
  Alcotest.(check (list string)) "both joined via DH-derived keys"
    [ "alice"; "bob" ]
    (Leader.members leader);
  (* Full service still works. *)
  Test_util.route router (Member.send_app alice "pk hello");
  Alcotest.(check (list (pair string string))) "bob hears alice"
    [ ("alice", "pk hello") ]
    (Test_util.app_received bob)

let test_pk_wrong_keypair_rejected () =
  let rng = Prng.Splitmix.create 7L in
  let lid = Pk_auth.generate "leader" rng in
  let aid = Pk_auth.generate "alice" rng in
  let mallory = Pk_auth.generate "alice" rng in
  (* Leader knows the REAL alice's public value. *)
  let leader =
    Pk_auth.leader lid ~directory:[ ("alice", Pk_auth.pub aid) ] ~rng ()
  in
  (* Mallory presents herself as alice with her own key pair. *)
  let fake =
    Pk_auth.member mallory ~leader:"leader" ~leader_pub:(Pk_auth.pub lid) ~rng
  in
  let router = Test_util.improved_router leader [ ("alice", fake) ] in
  Test_util.route router (Member.join fake);
  Alcotest.(check bool) "impostor not connected" false (Member.is_connected fake);
  Alcotest.(check (list string)) "no members" [] (Leader.members leader)

let test_key_kind_discipline () =
  let rng = Prng.Splitmix.create 8L in
  let session = Sym_crypto.Key.fresh Sym_crypto.Key.Session rng in
  Alcotest.check_raises "member rejects non-long-term key"
    (Invalid_argument "Member.create_with_key: key must be long-term")
    (fun () ->
      ignore (Member.create_with_key ~self:"a" ~leader:"l" ~long_term:session ~rng));
  Alcotest.check_raises "leader rejects non-long-term key"
    (Invalid_argument "Leader.create_with_keys: keys must be long-term")
    (fun () ->
      ignore
        (Leader.create_with_keys ~self:"l" ~rng ~directory:[ ("a", session) ] ()))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"mul_mod commutative" ~count:300
      QCheck.(pair int64 int64)
      (fun (a, b) ->
        let a = Int64.logand a Int64.max_int and b = Int64.logand b Int64.max_int in
        Dh.mul_mod a b = Dh.mul_mod b a);
    QCheck.Test.make ~name:"pow laws: b^(e+1) = b^e * b" ~count:100
      QCheck.(pair (int_range 2 1_000_000) (int_range 0 1_000))
      (fun (b, e) ->
        let b = Int64.of_int b and e = Int64.of_int e in
        Dh.pow_mod b (Int64.add e 1L) = Dh.mul_mod (Dh.pow_mod b e) b);
  ]

let suite =
  [
    ( "pk-auth (footnote 1)",
      [
        Alcotest.test_case "dh agreement" `Quick test_dh_agreement;
        Alcotest.test_case "distinct pairs" `Quick
          test_dh_distinct_pairs_distinct_secrets;
        Alcotest.test_case "degenerate pub rejected" `Quick
          test_dh_rejects_degenerate_pub;
        Alcotest.test_case "mul_mod small" `Quick test_mul_mod_matches_small;
        Alcotest.test_case "pow_mod basics" `Quick test_pow_mod_basics;
        Alcotest.test_case "pairwise symmetric" `Quick test_pairwise_symmetric;
        Alcotest.test_case "pk handshake end-to-end" `Quick
          test_pk_handshake_end_to_end;
        Alcotest.test_case "wrong keypair rejected" `Quick
          test_pk_wrong_keypair_rejected;
        Alcotest.test_case "key kind discipline" `Quick test_key_kind_discipline;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
