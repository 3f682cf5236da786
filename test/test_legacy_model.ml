(* Tests for the legacy-protocol symbolic model: the model checker
   must rediscover every §2.3 attack as a reachable violation with a
   replayable counterexample trace, while long-term-key secrecy still
   holds (the weaknesses are group-management ones). *)

open Symbolic

let explored = lazy (Legacy_model.explore ())

let find_weakness w =
  let r = Lazy.force explored in
  List.find (fun f -> f.Legacy_model.weakness = w) (Legacy_model.findings r)

let test_explores () =
  let r = Lazy.force explored in
  Alcotest.(check bool) "nontrivial state space" true
    (Legacy_model.state_count r > 100);
  Alcotest.(check int) "states at default bounds" 319
    (Legacy_model.state_count r)

let check_attack_found w =
  let f = find_weakness w in
  Alcotest.(check bool) (w ^ " reachable") true f.Legacy_model.violated;
  Alcotest.(check bool) (w ^ " has a trace") true (f.Legacy_model.trace <> [])

let test_w1 () = check_attack_found "W1"
let test_w2 () = check_attack_found "W2"
let test_w3 () = check_attack_found "W3"
let test_w4 () = check_attack_found "W4"

let test_pa_secrecy_holds () =
  let f = find_weakness "Pa-secrecy" in
  Alcotest.(check bool) "Pa never learned" false f.Legacy_model.violated

let contains_substring sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_w1_trace_shows_injection () =
  (* The denial counterexample must involve an intruder injection —
     the leader never sends ConnectionDenied in this model. *)
  let f = find_weakness "W1" in
  Alcotest.(check bool) "trace contains the forged denial" true
    (List.exists
       (contains_substring "E:inject-ConnectionDenied")
       f.Legacy_model.trace)

let test_insiderless_intruder_cannot_forge_removal () =
  (* With insider_epochs = 0 the intruder holds no group key: W2
     becomes unreachable — confirming the attack really rides on
     insider knowledge, as §2.3 says ("trivial for any group
     member"). *)
  let bounds = { Legacy_model.default_bounds with insider_epochs = 0 } in
  let r = Legacy_model.explore ~bounds () in
  let f =
    List.find
      (fun f -> f.Legacy_model.weakness = "W2")
      (Legacy_model.findings ~bounds r)
  in
  Alcotest.(check bool) "no group key, no forgery" false f.Legacy_model.violated

let test_no_rekey_no_epoch_regression () =
  (* With a single epoch there is no old NewKey to replay: W3 must be
     unreachable. *)
  let bounds = { Legacy_model.default_bounds with max_epoch = 1 } in
  let r = Legacy_model.explore ~bounds () in
  let f =
    List.find
      (fun f -> f.Legacy_model.weakness = "W3")
      (Legacy_model.findings ~bounds r)
  in
  Alcotest.(check bool) "single epoch: no regression" false
    f.Legacy_model.violated

(* The counterexamples themselves, line for line. Each is the BFS-tree
   path to the first matching state or edge in discovery order, so a
   change to exploration order or to rendering shows up here. *)
let pinned_traces =
  [
    ( "W1",
      [
        "A:req-open  =>  mem=WaitingAckOpen lead=Idle epoch=1";
        "E:inject-ConnectionDenied  =>  mem=WaitingAckOpen lead=Idle epoch=1";
        "A:recv-denied!  =>  mem=Denied lead=Idle epoch=1";
      ] );
    ( "W2",
      [
        "A:req-open  =>  mem=WaitingAckOpen lead=Idle epoch=1";
        "L:recv-req-open  =>  mem=WaitingAckOpen lead=WaitingAuth1 epoch=1";
        "A:recv-ack-open  =>  mem=WaitingAuth2(N0) lead=WaitingAuth1 epoch=1";
        "L:recv-auth1  =>  mem=WaitingAuth2(N0) lead=WaitingAuth3(N1) epoch=1";
        "A:recv-auth2  =>  mem=Connected(epoch=1,sees_b=true) lead=WaitingAuth3(N1) epoch=1";
        "E:inject-MemRemoved  =>  mem=Connected(epoch=1,sees_b=true) lead=WaitingAuth3(N1) epoch=1";
        "A:recv-mem-removed!  =>  mem=Connected(epoch=1,sees_b=false) lead=WaitingAuth3(N1) epoch=1";
      ] );
    ( "W3",
      [
        "A:req-open  =>  mem=WaitingAckOpen lead=Idle epoch=1";
        "L:recv-req-open  =>  mem=WaitingAckOpen lead=WaitingAuth1 epoch=1";
        "A:recv-ack-open  =>  mem=WaitingAuth2(N0) lead=WaitingAuth1 epoch=1";
        "L:recv-auth1  =>  mem=WaitingAuth2(N0) lead=WaitingAuth3(N1) epoch=1";
        "A:recv-auth2  =>  mem=Connected(epoch=1,sees_b=true) lead=WaitingAuth3(N1) epoch=1";
        "L:recv-auth3  =>  mem=Connected(epoch=1,sees_b=true) lead=InSession epoch=1";
        "L:rekey  =>  mem=Connected(epoch=1,sees_b=true) lead=InSession epoch=2";
        "L:rekey  =>  mem=Connected(epoch=1,sees_b=true) lead=InSession epoch=3";
        "A:recv-new-key(epoch=3)  =>  mem=Connected(epoch=3,sees_b=true) lead=InSession epoch=3";
        "A:recv-new-key(epoch=2)  =>  mem=Connected(epoch=2,sees_b=true) lead=InSession epoch=3";
      ] );
    ( "W4",
      [
        "A:req-open  =>  mem=WaitingAckOpen lead=Idle epoch=1";
        "L:recv-req-open  =>  mem=WaitingAckOpen lead=WaitingAuth1 epoch=1";
        "A:recv-ack-open  =>  mem=WaitingAuth2(N0) lead=WaitingAuth1 epoch=1";
        "L:recv-auth1  =>  mem=WaitingAuth2(N0) lead=WaitingAuth3(N1) epoch=1";
        "A:recv-auth2  =>  mem=Connected(epoch=1,sees_b=true) lead=WaitingAuth3(N1) epoch=1";
        "L:recv-auth3  =>  mem=Connected(epoch=1,sees_b=true) lead=InSession epoch=1";
        "E:inject-LegacyReqClose  =>  mem=Connected(epoch=1,sees_b=true) lead=InSession epoch=1";
        "L:recv-req-close!  =>  mem=Connected(epoch=1,sees_b=true) lead=Idle epoch=1";
      ] );
  ]

let test_traces_pinned () =
  List.iter
    (fun (w, expected) ->
      Alcotest.(check (list string))
        (w ^ " trace") expected (find_weakness w).Legacy_model.trace)
    pinned_traces

let suite =
  [
    ( "legacy symbolic model (§2.3)",
      [
        Alcotest.test_case "explores" `Quick test_explores;
        Alcotest.test_case "W1 forged denial found" `Quick test_w1;
        Alcotest.test_case "W2 forged removal found" `Quick test_w2;
        Alcotest.test_case "W3 epoch regression found" `Quick test_w3;
        Alcotest.test_case "W4 forged close found" `Quick test_w4;
        Alcotest.test_case "Pa secrecy still holds" `Quick test_pa_secrecy_holds;
        Alcotest.test_case "W1 trace shows injection" `Quick
          test_w1_trace_shows_injection;
        Alcotest.test_case "outsider cannot forge removal" `Quick
          test_insiderless_intruder_cannot_forge_removal;
        Alcotest.test_case "no rekey, no regression" `Quick
          test_no_rekey_no_epoch_regression;
        Alcotest.test_case "W1-W4 traces pinned" `Quick test_traces_pinned;
      ] );
  ]
