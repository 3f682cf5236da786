(* Durable leader journal: roundtrip, state folding, compaction, and
   the totality properties that make warm recovery safe — replay of
   arbitrarily truncated or bit-flipped bytes never raises and always
   recovers a valid prefix of the original records. The properties are
   written once over the log engine and run on the journal and on a
   delivery queue. *)

open Enclaves
module J = Journal
module Q = Store.Queue

let raw_key i = String.init 16 (fun j -> Char.chr ((i * 31 + j * 7) land 0xff))

(* A deterministic mixed workload: establishments, closes, rekeys. *)
let sample_records n =
  List.init n (fun i ->
      match i mod 4 with
      | 0 ->
          J.Session_established
            { member = Printf.sprintf "m%d" (i / 4); key = raw_key i }
      | 1 -> J.Epoch_bump { key = raw_key (100 + i); epoch = (i / 4) + 1 }
      | 2 ->
          J.Session_established
            { member = Printf.sprintf "n%d" (i / 4); key = raw_key (200 + i) }
      | _ -> J.Session_closed { member = Printf.sprintf "m%d" (i / 4) })

let journal_of records =
  (* compact_every high enough that nothing auto-compacts. *)
  let j = J.create ~compact_every:10_000 () in
  List.iter (J.append j) records;
  j

let records_equal got want =
  List.length got = List.length want
  && List.for_all2 J.record_equal got want

let rec prefix_of equal got orig =
  match (got, orig) with
  | [], _ -> true
  | _ :: _, [] -> false
  | g :: gs, o :: os -> equal g o && prefix_of equal gs os

let is_prefix = prefix_of J.record_equal

let test_roundtrip () =
  let orig = sample_records 23 in
  let j = journal_of orig in
  let got, status = J.replay (J.contents j) in
  Alcotest.(check bool) "clean" true (status = J.Clean);
  Alcotest.(check bool) "records roundtrip" true (records_equal got orig);
  Alcotest.(check int) "record count" 23 (J.records j)

let test_state_fold () =
  let records =
    [
      J.Session_established { member = "bob"; key = raw_key 1 };
      J.Session_established { member = "alice"; key = raw_key 2 };
      J.Epoch_bump { key = raw_key 3; epoch = 1 };
      J.Session_closed { member = "bob" };
      J.Epoch_bump { key = raw_key 4; epoch = 2 };
    ]
  in
  let st = J.state_of_records records in
  Alcotest.(check (list string))
    "surviving sessions, sorted" [ "alice" ]
    (List.map fst st.J.sessions);
  Alcotest.(check bool) "alice's key survives" true
    (List.assoc "alice" st.J.sessions = raw_key 2);
  (match st.J.group_key with
  | Some (k, 2) -> Alcotest.(check bool) "latest K_g" true (k = raw_key 4)
  | _ -> Alcotest.fail "expected epoch-2 group key");
  Alcotest.(check int) "next epoch" 3 st.J.next_epoch;
  (* The live journal maintains the same fold incrementally. *)
  let j = journal_of records in
  Alcotest.(check bool) "incremental state matches fold" true
    (J.state j = st)

let test_reestablish_replaces_key () =
  let st =
    J.state_of_records
      [
        J.Session_established { member = "alice"; key = raw_key 1 };
        J.Session_established { member = "alice"; key = raw_key 2 };
      ]
  in
  Alcotest.(check int) "one session" 1 (List.length st.J.sessions);
  Alcotest.(check bool) "newest key wins" true
    (List.assoc "alice" st.J.sessions = raw_key 2)

let test_compaction_preserves_state () =
  let j = journal_of (sample_records 23) in
  let before = J.state j in
  J.compact j;
  Alcotest.(check int) "one snapshot record" 1 (J.records j);
  Alcotest.(check bool) "state preserved" true (J.state j = before);
  (* The snapshot replays to the same state. *)
  let got, status = J.replay (J.contents j) in
  Alcotest.(check bool) "snapshot replays clean" true (status = J.Clean);
  Alcotest.(check bool) "snapshot folds to same state" true
    (J.state_of_records got = before)

let test_auto_compaction_bounds_size () =
  let j = J.create ~compact_every:8 () in
  let orig = sample_records 200 in
  List.iter (J.append j) orig;
  Alcotest.(check bool)
    (Printf.sprintf "record count bounded (%d)" (J.records j))
    true
    (J.records j <= 9);
  Alcotest.(check bool) "state unharmed by compactions" true
    (J.state j = J.state_of_records orig)

let test_append_after_recover () =
  let j = journal_of (sample_records 10) in
  let j', st, status = J.recover (J.contents j) in
  Alcotest.(check bool) "clean recovery" true (status = J.Clean);
  Alcotest.(check bool) "recovered state" true (st = J.state j);
  (* The recovered journal is live: appends keep working. *)
  J.append j' (J.Session_established { member = "zoe"; key = raw_key 9 });
  let got, status' = J.replay (J.contents j') in
  Alcotest.(check bool) "still clean" true (status' = J.Clean);
  Alcotest.(check bool) "append lands after snapshot" true
    (List.mem_assoc "zoe" (J.state_of_records got).J.sessions)

let test_garbage_and_empty () =
  List.iter
    (fun bytes ->
      let got, status = J.replay bytes in
      Alcotest.(check int) "no records" 0 (List.length got);
      Alcotest.(check bool) "damaged at byte 0" true
        (status = J.Damaged { valid_records = 0; valid_bytes = 0 }))
    [ ""; "E"; "EJNL"; "EJNL\x02"; "not a journal at all"; String.make 64 '\xff' ]

let test_every_truncation_recovers_prefix () =
  let orig = sample_records 12 in
  let bytes = J.contents (journal_of orig) in
  for cut = 0 to String.length bytes - 1 do
    let got, _ = J.replay (String.sub bytes 0 cut) in
    Alcotest.(check bool)
      (Printf.sprintf "prefix at cut %d" cut)
      true (is_prefix got orig)
  done;
  (* Untruncated replays everything, cleanly. *)
  let got, status = J.replay bytes in
  Alcotest.(check bool) "full is clean" true (status = J.Clean);
  Alcotest.(check bool) "full is complete" true (records_equal got orig)

let test_torn_tail_write () =
  (* A crash mid-append leaves a half-written final record; everything
     before it must survive. *)
  let orig = sample_records 8 in
  let j = journal_of orig in
  let whole = J.contents j in
  J.append j (J.Epoch_bump { key = raw_key 77; epoch = 99 });
  let torn = String.sub (J.contents j) 0 (String.length whole + 5) in
  let got, status = J.replay torn in
  Alcotest.(check bool) "first 8 records intact" true (records_equal got orig);
  (match status with
  | J.Damaged { valid_records = 8; valid_bytes } ->
      Alcotest.(check int) "damage starts at the torn record" (String.length whole)
        valid_bytes
  | _ -> Alcotest.fail "expected damage at record 8")

(* --- replay properties, once over the engine --- *)

module Replay_properties (L : sig
  include Store.Log.S

  val name : string
  val sample : record list
  val extra : record
end) =
struct
  let image =
    let t = L.create ~compact_every:10_000 () in
    List.iter (L.append t) L.sample;
    L.contents t

  let is_prefix got = prefix_of L.record_equal got L.sample

  let tests =
    [
      QCheck.Test.make
        ~name:(Printf.sprintf "replay of truncated %s recovers a prefix" L.name)
        ~count:300
        QCheck.(int_range 0 (String.length image))
        (fun cut -> is_prefix (fst (L.replay (String.sub image 0 cut))));
      QCheck.Test.make ~name:"replay survives any single-bit corruption"
        ~count:500
        QCheck.(pair (int_range 0 (String.length image - 1)) (int_range 0 7))
        (fun (i, bit) ->
          let b = Bytes.of_string image in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          is_prefix (fst (L.replay (Bytes.to_string b))));
      QCheck.Test.make ~name:"replay survives arbitrary bytes" ~count:500
        QCheck.string (fun s ->
          (* Arbitrary bytes almost never checksum; no raise is the real
             assertion. *)
          List.length (fst (L.replay s)) >= 0);
      QCheck.Test.make ~name:"recover is total and appendable" ~count:200
        QCheck.(pair (int_range 0 (String.length image)) (int_range 0 7))
        (fun (cut, bit) ->
          let b = Bytes.of_string (String.sub image 0 cut) in
          if Bytes.length b > 0 then begin
            let i = cut / 2 in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
          end;
          let t, _, _ = L.recover (Bytes.to_string b) in
          L.append t L.extra;
          true);
    ]
end

module Journal_properties = Replay_properties (struct
  include J

  let name = "journal"
  let sample = sample_records 40
  let extra = J.Session_closed { member = "anyone" }
end)

(* Pushes, cumulative acks and drops in a fixed rhythm. *)
module Queue_properties = Replay_properties (struct
  include Q

  let name = "queue"

  let sample =
    List.init 40 (fun i ->
        match i mod 4 with
        | 0 | 1 ->
            let payload = String.make (i mod 7) 'p' in
            Q.Push { seq = i; epoch = i / 8; payload }
        | 2 -> Q.Ack { upto = i - 1 }
        | _ -> Q.Drop { seq = i - 3 })

  let extra = Q.Ack { upto = 0 }
end)

let suite =
  [
    ( "journal",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        [
          ("roundtrip", test_roundtrip);
          ("state fold", test_state_fold);
          ("re-establish replaces key", test_reestablish_replaces_key);
          ("compaction preserves state", test_compaction_preserves_state);
          ("auto-compaction bounds size", test_auto_compaction_bounds_size);
          ("recover then append", test_append_after_recover);
          ("garbage and empty input", test_garbage_and_empty);
          ("every truncation recovers a prefix", test_every_truncation_recovers_prefix);
          ("torn tail write", test_torn_tail_write);
        ]
      @ List.map QCheck_alcotest.to_alcotest Journal_properties.tests );
    ("queue", List.map QCheck_alcotest.to_alcotest Queue_properties.tests);
  ]
