(* Tests for the crypto substrate: SipHash reference vectors, Feistel
   permutation properties, CTR mode, MAC, KDF and AEAD. *)

open Sym_crypto
open Byteskit

let ref_key =
  Hex.decode_exn "000102030405060708090a0b0c0d0e0f"

(* First 16 published SipHash-2-4 vectors: key = 00..0f, message =
   the first [i] bytes of 00 01 02 ..., output little-endian. *)
let siphash_vectors =
  [|
    "310e0edd47db6f72"; "fd67dc93c539f874"; "5a4fa9d909806c0d";
    "2d7efbd796666785"; "b7877127e09427cf"; "8da699cd64557618";
    "cee3fe586e46c9cb"; "37d1018bf50002ab"; "6224939a79f5f593";
    "b0e4a90bdf82009e"; "f3b9dd94c5bb5d7a"; "a7ad6b22462fb3f4";
    "fbe50e86bc8f1e75"; "903d84c02756ea14"; "eef27a8e90ca23f7";
    "e545be4961ca29a1";
  |]

let test_siphash_vectors () =
  let key = Siphash.key_of_string ref_key in
  Array.iteri
    (fun i expected ->
      let msg = String.init i (fun j -> Char.chr j) in
      Alcotest.(check string)
        (Printf.sprintf "vector %d" i)
        expected
        (Hex.encode (Siphash.hash_to_bytes key msg)))
    siphash_vectors

let test_siphash_key_roundtrip () =
  let k = Siphash.key_of_string ref_key in
  Alcotest.(check string) "roundtrip" ref_key (Siphash.key_to_string k);
  Alcotest.check_raises "bad key size"
    (Invalid_argument "Siphash.key_of_string: key must be 16 bytes") (fun () ->
      ignore (Siphash.key_of_string "short"))

let test_siphash_key_sensitivity () =
  let k1 = Siphash.key_of_string ref_key in
  let k2 = Siphash.key_of_string (Hex.decode_exn "100102030405060708090a0b0c0d0e0f") in
  Alcotest.(check bool) "different keys, different output" true
    (Siphash.hash k1 "msg" <> Siphash.hash k2 "msg")

let test_feistel_roundtrip () =
  let rng = Prng.Splitmix.create 1L in
  let cipher = Feistel.of_key ref_key in
  for _ = 1 to 50 do
    let block = Bytes.unsafe_to_string (Prng.Splitmix.next_bytes rng 16) in
    Alcotest.(check string)
      "decrypt . encrypt = id" block
      (Feistel.decrypt_block cipher (Feistel.encrypt_block cipher block))
  done

let test_feistel_permutation () =
  (* distinct plaintexts must map to distinct ciphertexts *)
  let cipher = Feistel.of_key ref_key in
  let module S = Set.Make (String) in
  let rng = Prng.Splitmix.create 2L in
  let inputs =
    List.init 200 (fun _ -> Bytes.unsafe_to_string (Prng.Splitmix.next_bytes rng 16))
  in
  let outputs = List.map (Feistel.encrypt_block cipher) inputs in
  Alcotest.(check int) "injective"
    (S.cardinal (S.of_list inputs))
    (S.cardinal (S.of_list outputs))

let test_feistel_key_separation () =
  let c1 = Feistel.of_key ref_key in
  let c2 = Feistel.of_key (Kdf.derive ~key:ref_key ~label:"other") in
  let block = String.make 16 'A' in
  Alcotest.(check bool) "different key, different ciphertext" true
    (Feistel.encrypt_block c1 block <> Feistel.encrypt_block c2 block)

let test_feistel_avalanche () =
  let cipher = Feistel.of_key ref_key in
  let b1 = String.make 16 '\x00' in
  let b2 = "\x01" ^ String.make 15 '\x00' in
  let c1 = Feistel.encrypt_block cipher b1
  and c2 = Feistel.encrypt_block cipher b2 in
  let diff = ref 0 in
  String.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code c2.[i] in
      for bit = 0 to 7 do
        if x land (1 lsl bit) <> 0 then incr diff
      done)
    c1;
  (* 128-bit block: expect ~64 differing bits; accept a broad band. *)
  Alcotest.(check bool)
    (Printf.sprintf "avalanche (%d bits differ)" !diff)
    true
    (!diff > 40 && !diff < 88)

let test_ctr_roundtrip () =
  let cipher = Feistel.of_key ref_key in
  let iv = "12345678" in
  let msgs = [ ""; "x"; "hello world"; String.make 1000 'q' ] in
  List.iter
    (fun m ->
      let c = Ctr.transform cipher ~iv m in
      Alcotest.(check string) "roundtrip" m (Ctr.transform cipher ~iv c);
      if m <> "" then
        Alcotest.(check bool) "ciphertext differs" true (c <> m))
    msgs

let test_ctr_iv_matters () =
  let cipher = Feistel.of_key ref_key in
  let m = String.make 32 'm' in
  let c1 = Ctr.transform cipher ~iv:"00000000" m in
  let c2 = Ctr.transform cipher ~iv:"00000001" m in
  Alcotest.(check bool) "different IVs, different streams" true (c1 <> c2)

let test_ctr_keystream_prefix () =
  let cipher = Feistel.of_key ref_key in
  let long = Ctr.keystream cipher ~iv:"abcdefgh" 100 in
  let short = Ctr.keystream cipher ~iv:"abcdefgh" 40 in
  Alcotest.(check string) "prefix-consistent" short (String.sub long 0 40)

let test_mac_basic () =
  let mac = Mac.of_key ref_key in
  let t = Mac.tag mac "message" in
  Alcotest.(check int) "tag size" Mac.tag_size (String.length t);
  Alcotest.(check bool) "verifies" true (Mac.verify mac "message" ~tag:t);
  Alcotest.(check bool) "wrong msg" false (Mac.verify mac "messagf" ~tag:t);
  Alcotest.(check bool) "wrong key" false
    (Mac.verify (Mac.of_key (Kdf.derive ~key:ref_key ~label:"x")) "message" ~tag:t);
  Alcotest.(check bool) "truncated tag" false
    (Mac.verify mac "message" ~tag:(String.sub t 0 8))

let test_mac_bitflip () =
  let mac = Mac.of_key ref_key in
  let t = Mac.tag mac "payload" in
  for i = 0 to Mac.tag_size - 1 do
    let t' = Bytes.of_string t in
    Bytes.set t' i (Char.chr (Char.code t.[i] lxor 1));
    Alcotest.(check bool)
      (Printf.sprintf "flipped byte %d rejected" i)
      false
      (Mac.verify mac "payload" ~tag:(Bytes.to_string t'))
  done

let test_kdf_password () =
  let k1 = Kdf.of_password ~user:"alice" ~password:"s3cret" in
  let k2 = Kdf.of_password ~user:"alice" ~password:"s3cret" in
  Alcotest.(check string) "deterministic" k1 k2;
  Alcotest.(check int) "size" Kdf.key_size (String.length k1);
  let k3 = Kdf.of_password ~user:"bob" ~password:"s3cret" in
  Alcotest.(check bool) "user-separated" true (k1 <> k3);
  let k4 = Kdf.of_password ~user:"alice" ~password:"s3cres" in
  Alcotest.(check bool) "password-sensitive" true (k1 <> k4)

let test_kdf_derive () =
  let a = Kdf.derive ~key:ref_key ~label:"a" in
  let b = Kdf.derive ~key:ref_key ~label:"b" in
  Alcotest.(check bool) "label-separated" true (a <> b);
  Alcotest.(check string) "deterministic" a (Kdf.derive ~key:ref_key ~label:"a");
  Alcotest.(check int) "size" Kdf.key_size (String.length a)

let test_key_kinds () =
  let rng = Prng.Splitmix.create 9L in
  let s = Key.fresh Key.Session rng in
  let g = Key.fresh Key.Group rng in
  Alcotest.(check bool) "kinds differ" true (Key.kind s <> Key.kind g);
  Alcotest.(check bool) "materials differ" true (Key.raw s <> Key.raw g);
  let s' = Key.of_raw Key.Session (Key.raw s) in
  Alcotest.(check bool) "equal same material+kind" true (Key.equal s s');
  let g' = Key.of_raw Key.Group (Key.raw s) in
  Alcotest.(check bool) "same material, different kind: unequal" false
    (Key.equal s g')

let test_key_long_term () =
  let pa = Key.long_term ~user:"alice" ~password:"pw" in
  Alcotest.(check bool) "kind" true (Key.kind pa = Key.Long_term);
  Alcotest.(check string) "matches kdf" (Kdf.of_password ~user:"alice" ~password:"pw")
    (Key.raw pa)

let test_key_fingerprint () =
  let rng = Prng.Splitmix.create 10L in
  let k = Key.fresh Key.Session rng in
  Alcotest.(check int) "short" 8 (String.length (Key.fingerprint k));
  Alcotest.(check bool) "not the key" true
    (Key.fingerprint k <> Hex.encode (Key.raw k))

let seal_key rng = Key.fresh Key.Session rng

let test_aead_roundtrip () =
  let rng = Prng.Splitmix.create 20L in
  let key = seal_key rng in
  let iv = Aead.random_iv rng in
  let sealed = Aead.seal ~key ~iv ~ad:"header" "the plaintext" in
  match Aead.open_ ~key ~ad:"header" sealed with
  | Ok p -> Alcotest.(check string) "roundtrip" "the plaintext" p
  | Error `Auth_failure -> Alcotest.fail "authentic frame rejected"

let test_aead_rejects_wrong_key () =
  let rng = Prng.Splitmix.create 21L in
  let key = seal_key rng and key' = seal_key rng in
  let sealed = Aead.seal ~key ~iv:(Aead.random_iv rng) ~ad:"" "secret" in
  match Aead.open_ ~key:key' ~ad:"" sealed with
  | Error `Auth_failure -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"

let test_aead_rejects_wrong_ad () =
  let rng = Prng.Splitmix.create 22L in
  let key = seal_key rng in
  let sealed = Aead.seal ~key ~iv:(Aead.random_iv rng) ~ad:"ctx-a" "secret" in
  match Aead.open_ ~key ~ad:"ctx-b" sealed with
  | Error `Auth_failure -> ()
  | Ok _ -> Alcotest.fail "context confusion accepted"

let test_aead_rejects_tamper () =
  let rng = Prng.Splitmix.create 23L in
  let key = seal_key rng in
  let sealed = Aead.seal ~key ~iv:(Aead.random_iv rng) ~ad:"" "secret bytes" in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x80));
    Bytes.to_string b
  in
  let tampered_ct = { sealed with Aead.ciphertext = flip sealed.Aead.ciphertext 0 } in
  let tampered_iv = { sealed with Aead.iv = flip sealed.Aead.iv 3 } in
  let tampered_tag = { sealed with Aead.tag = flip sealed.Aead.tag 5 } in
  List.iter
    (fun (name, s) ->
      match Aead.open_ ~key ~ad:"" s with
      | Error `Auth_failure -> ()
      | Ok _ -> Alcotest.fail (name ^ " accepted"))
    [ ("tampered ciphertext", tampered_ct);
      ("tampered iv", tampered_iv);
      ("tampered tag", tampered_tag) ]

let test_aead_encode_roundtrip () =
  let rng = Prng.Splitmix.create 24L in
  let key = seal_key rng in
  let sealed = Aead.seal ~key ~iv:(Aead.random_iv rng) ~ad:"ad" "data" in
  match Aead.decode (Aead.encode sealed) with
  | Ok s ->
      Alcotest.(check string) "iv" sealed.Aead.iv s.Aead.iv;
      Alcotest.(check string) "ct" sealed.Aead.ciphertext s.Aead.ciphertext;
      Alcotest.(check string) "tag" sealed.Aead.tag s.Aead.tag
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let test_aead_decode_garbage () =
  List.iter
    (fun s ->
      match Aead.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage decoded")
    [ ""; "xx"; String.make 3 '\xff' ]

(* Known-answer vectors. Every value below was computed by the
   implementation this module replaced (a key schedule rebuilt on every
   call and an allocating round function), so the fast path must
   reproduce these bytes exactly: the wire format, seeded traces and
   chaos verdicts all depend on them. *)

let test_feistel_kat () =
  let c = Feistel.of_key ref_key in
  List.iter
    (fun (block, expected) ->
      Alcotest.(check string) ("encrypt " ^ block) expected
        (Hex.encode (Feistel.encrypt_block c (Hex.decode_exn block))))
    [
      ("00000000000000000000000000000000", "1a73f2dfdeca4449c3839d89cb5a3634");
      ("000102030405060708090a0b0c0d0e0f", "25ab97332a5aada381f5d17e51c41327");
      ("4142434445464748494a4b4c4d4e4f50", "197f71e559d2216cf8bea425ba4f68b1");
    ];
  List.iter
    (fun (block, expected) ->
      Alcotest.(check string) ("decrypt " ^ block) expected
        (Hex.encode (Feistel.decrypt_block c (Hex.decode_exn block))))
    [
      ("00000000000000000000000000000000", "eaec4e7339f3d74d1bfe2b426ac1c63b");
      ("ffffffffffffffffffffffffffffffff", "cdbba7eb927c42ff28757ef5c973e3f4");
    ]

let test_ctr_kat () =
  Alcotest.(check string) "keystream"
    "683ccb3f037245ba5874a84446c7dbfc61ad42ce72c94a28becf02fd74509fe6356a7a4e9eb7514a"
    (Hex.encode (Ctr.keystream (Feistel.of_key ref_key) ~iv:"abcdefgh" 40))

let kat_body n = String.init n (fun i -> Char.chr ((i * 7 + 3) land 0xff))

let test_mac_kat () =
  let mac = Mac.of_key ref_key in
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "tag of %d bytes" (String.length msg))
        expected (Hex.encode (Mac.tag mac msg)))
    [
      ("", "b6d6ebf6dcae700684e7fd92a5da2ed3");
      ("message", "79381e4eea1e3d3bddea072832559134");
      (kat_body 100, "f370543dee3f65dafdcf17659c330199");
    ]

let test_kdf_kat () =
  List.iter
    (fun (label, expected) ->
      Alcotest.(check string) ("derive " ^ label) expected
        (Hex.encode (Kdf.derive ~key:ref_key ~label)))
    [
      ("", "25371e247fb11cb584ad88faea96c8d8");
      ("aead-encrypt", "a125d7449afd64e3ad5cbaefb354b8b4");
      ("aead-mac", "3193a2b4a3ad5233e7241e7b343c82c1");
    ];
  List.iter
    (fun (user, password, expected) ->
      Alcotest.(check string) ("password of " ^ user) expected
        (Hex.encode (Kdf.of_password ~user ~password)))
    [
      ("alice", "s3cret", "fd8b1cbc4882a514b5844e368c0772ce");
      ("", "", "0930a0833c38b8ba83c49d507bb3a7a9");
    ]

(* The key and IV are fixed and [kat_body n] is a prefix of
   [kat_body 1024], so every ciphertext is a prefix of this one. *)
let aead_kat_ciphertext =
  String.concat ""
    [
      "4df40e6bb90070b1a2b57c59aa38cb53e7fce092c3cfdbd6981b8e17718876ae";
      "e2143366f8ee1cea7d6bf57c6a9bf88a0c69ae55a26ebdb444c3dee2028647fe";
      "408bb2bf56b51a2b5bf63da234500cb04b9b46bcdb396f196d5a4ef321f64ddf";
      "806086c31ed3936393b3819ba6921e403b9d06df2fe73302a1dcaff9660b65da";
      "9218547ea9ba55dd1d267d1f1958c108d9276e9dcb8698f7013c11a4fa62fbb8";
      "a1194e40427266400b7031309bc6299360d52864c34f17949b28f76631d7bba5";
      "448a1078842976919947e140f3134f67b9ebb75b45bac3cd4061312b8bcab86e";
      "eefca68d34b4d7712854289750350776f50fd3726ee51d40fff64bf9fd524094";
      "69a6f104ff23cd350fb65c4e9870fcbbe0abfd9b3f40350c6a5c880f06e6cab4";
      "9e9cea28b8665008e491e837b0ae153119c7a4444ceaae1852f83fd165ca2488";
      "103b7f6030a36952e817d5c7215a5754a2b402bf28e82fb043a371b2e255059c";
      "b0dcb0f92f7f3af988f8c12acec6cc90901eb9e6b76a2372aa87c8d8e9cfaa1d";
      "aacefd07816473636eaaf6eaafd3f98fff6af3ad12a105bf1d3340ca729b2118";
      "eaf3b3b7c5676782ac1cc967124097226c6ba1f26f6229603e10e22a844ecaed";
      "1119212d2b63d39cc8bbd3d122e2b4e525a49cc459a7583741e23de317ff1452";
      "a6a32c285181c285cdeb441b07702b971e814f3c7c8b15ca015b66b0ae3b824e";
      "033c9daef9107a645446f30c7f23ef4e6c11d16349b35c46a46be7863e9ee07f";
      "a25b37d4b0d18c2d0ce5375a31cb6d74aa28d082de95bca82dd328ae00f1f28e";
      "37865379140ad72a4fdc365b354cfd1f71223f6d0ce6e27999d26814cb375420";
      "9d77b56fc06ad19a8d2fc339f78ff905c277a6032fdaa48b3b5e6d569205b903";
      "cca2796865f66b4d7872b6900f4fc1107d58b829cf20e0e9ec5f7115720cc97f";
      "b839a7c7e83d581742de7ac3c7e3a18b05f30a22ab6cfe3b749f4099cf085d3b";
      "3f7161a9986eaa1f3d771b958c3dd5fc45c1c90625d71b5ee61a5c70ad6b790b";
      "2cf4a8f2cb8170529ccb8c106bde7a2e6337c37a5f0359d4c29c87475bce9e04";
      "ebafc27da83503329c5fd75196920a6c3308dc3fd100718c3e55c2c87605cc02";
      "bf1809771373876d7abc64fd388968d07d9b7b080387a5db8abaf2887a82451e";
      "fbfe77690db7d7188d95ae18c7bcba90073b7649ba727eebb1e7426298e2a8d8";
      "9dfa755d3c4ee1517adbe28690d4ed5167f938f23c45c229362161f5f1aa7d47";
      "2e0dbc6abe01f31fb5bc29d95f85daffd97f253d057b9f15f070f1bd887eeb2c";
      "56dc86849398acc8ea01476a055fc6d5f788a074393ccc6707a635c880ef008f";
      "d7355009fd2069f20f2ac190c373f9d594b60702716fdf46d014bd0422d290a7";
      "57115686aafa9199d4f235e39d9b2a760b48043bd0dcf9c5b4dc66c4278b821c";
    ]

let test_aead_kat () =
  let key = Key.of_raw Key.Session ref_key in
  let ad37 = String.make 37 'x' in
  List.iter
    (fun (n, ad, tag) ->
      let sealed = Aead.seal ~key ~iv:"12345678" ~ad (kat_body n) in
      let name = Printf.sprintf "body %d, ad %d" n (String.length ad) in
      Alcotest.(check string) (name ^ ": ciphertext")
        (String.sub aead_kat_ciphertext 0 (2 * n))
        (Hex.encode sealed.Aead.ciphertext);
      Alcotest.(check string) (name ^ ": tag") tag (Hex.encode sealed.Aead.tag))
    [
      (0, "", "f1de04f6b473a2ce54206174011c228c");
      (1, "ad", "6a9f6d8c0b8f3e0a775bf253f3233dd6");
      (7, ad37, "2189a61bfa45cb3315a59ebd9bee0953");
      (8, "", "fad84490a6bf4af44aad894f3f588e48");
      (9, "ad", "517b8217dc621100aadeeb08af599a0e");
      (15, ad37, "271b26ed5d277aabd40f0c6927d3b683");
      (16, "", "f58bc730ce97eabb0ce566cc3ca10912");
      (17, "ad", "f5ca7f082220d863133438acaa6bc249");
      (63, ad37, "c37533304519f9ca3e0befbab341939b");
      (64, "", "2cd2c001971ad8176a1944da75197cca");
      (65, "ad", "7dc250dae52ea011083f32cf1becf11e");
      (1024, ad37, "ab3bf81a840dbcf5d7ff783fd34a6bdf");
    ]

let qcheck_tests =
  let key16 = QCheck.string_of_size (QCheck.Gen.return 16) in
  [
    QCheck.Test.make ~name:"feistel roundtrip" ~count:200
      QCheck.(pair key16 (string_of_size (QCheck.Gen.return 16)))
      (fun (k, b) ->
        let c = Feistel.of_key k in
        Feistel.decrypt_block c (Feistel.encrypt_block c b) = b);
    QCheck.Test.make ~name:"ctr involutive" ~count:200
      QCheck.(pair key16 string)
      (fun (k, m) ->
        let c = Feistel.of_key k in
        Ctr.transform c ~iv:"00000000" (Ctr.transform c ~iv:"00000000" m) = m);
    QCheck.Test.make ~name:"mac verifies own tag" ~count:200
      QCheck.(pair key16 string)
      (fun (k, m) ->
        let mac = Mac.of_key k in
        Mac.verify mac m ~tag:(Mac.tag mac m));
    QCheck.Test.make ~name:"aead roundtrip" ~count:200
      QCheck.(triple key16 string string)
      (fun (k, ad, m) ->
        let key = Key.of_raw Key.Session k in
        let sealed = Aead.seal ~key ~iv:"87654321" ~ad m in
        Aead.open_ ~key ~ad sealed = Ok m);
    QCheck.Test.make ~name:"aead encode/decode" ~count:200
      QCheck.(pair key16 string)
      (fun (k, m) ->
        let key = Key.of_raw Key.Session k in
        let sealed = Aead.seal ~key ~iv:"11223344" ~ad:"x" m in
        match Aead.decode (Aead.encode sealed) with
        | Ok s -> Aead.open_ ~key ~ad:"x" s = Ok m
        | Error _ -> false);
    (* The schedule inside a key is a function of its material alone. *)
    QCheck.Test.make ~name:"aead ignores key kind" ~count:100
      QCheck.(triple key16 small_string string)
      (fun (k, ad, m) ->
        let seal kind = Aead.seal ~key:(Key.of_raw kind k) ~iv:"87654321" ~ad m in
        Key.of_raw Key.Group k = Key.of_raw Key.Group k
        && seal Key.Long_term = seal Key.Session
        && seal Key.Session = seal Key.Group);
  ]

let suite =
  [
    ( "sym_crypto",
      [
        Alcotest.test_case "siphash reference vectors" `Quick test_siphash_vectors;
        Alcotest.test_case "siphash key roundtrip" `Quick test_siphash_key_roundtrip;
        Alcotest.test_case "siphash key sensitivity" `Quick test_siphash_key_sensitivity;
        Alcotest.test_case "feistel roundtrip" `Quick test_feistel_roundtrip;
        Alcotest.test_case "feistel permutation" `Quick test_feistel_permutation;
        Alcotest.test_case "feistel key separation" `Quick test_feistel_key_separation;
        Alcotest.test_case "feistel avalanche" `Quick test_feistel_avalanche;
        Alcotest.test_case "ctr roundtrip" `Quick test_ctr_roundtrip;
        Alcotest.test_case "ctr iv matters" `Quick test_ctr_iv_matters;
        Alcotest.test_case "ctr keystream prefix" `Quick test_ctr_keystream_prefix;
        Alcotest.test_case "mac basic" `Quick test_mac_basic;
        Alcotest.test_case "mac bitflip" `Quick test_mac_bitflip;
        Alcotest.test_case "kdf password" `Quick test_kdf_password;
        Alcotest.test_case "kdf derive" `Quick test_kdf_derive;
        Alcotest.test_case "key kinds" `Quick test_key_kinds;
        Alcotest.test_case "key long-term" `Quick test_key_long_term;
        Alcotest.test_case "key fingerprint" `Quick test_key_fingerprint;
        Alcotest.test_case "aead roundtrip" `Quick test_aead_roundtrip;
        Alcotest.test_case "aead wrong key" `Quick test_aead_rejects_wrong_key;
        Alcotest.test_case "aead wrong ad" `Quick test_aead_rejects_wrong_ad;
        Alcotest.test_case "aead tamper" `Quick test_aead_rejects_tamper;
        Alcotest.test_case "aead encode roundtrip" `Quick test_aead_encode_roundtrip;
        Alcotest.test_case "aead decode garbage" `Quick test_aead_decode_garbage;
        Alcotest.test_case "feistel known answers" `Quick test_feistel_kat;
        Alcotest.test_case "ctr known answers" `Quick test_ctr_kat;
        Alcotest.test_case "mac known answers" `Quick test_mac_kat;
        Alcotest.test_case "kdf known answers" `Quick test_kdf_kat;
        Alcotest.test_case "aead known answers" `Quick test_aead_kat;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
