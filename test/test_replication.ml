(* Tests for the warm-standby replication plane: the sealed journal
   stream from primary to backups, its convergence under truncation /
   reordering / loss, rejection of forged, replayed and stale-term
   frames, the durable epoch vault, and warm failover behaviour under
   seeded network faults. *)

open Enclaves
module J = Journal
module F = Wire.Frame
module P = Wire.Payload
module Key = Sym_crypto.Key

(* --- a tiny synchronous wire between one source and one replica --- *)

type pair = {
  rng : Prng.Splitmix.t;
  key : Key.t;
  journal : J.t;
  source : Replication.Source.t;
  replica : Replication.Replica.t;
  outq : F.t Queue.t;  (* frames the source has put on the wire *)
}

let make_pair ?(seed = 7L) ?(term = 1) () =
  let rng = Prng.Splitmix.create seed in
  let key = Key.fresh Key.Long_term rng in
  let journal = J.create ~compact_every:10_000 () in
  let outq = Queue.create () in
  let source =
    Replication.Source.create ~self:"m0" ~backups:[ "b1" ] ~term ~key ~rng
      ~send:(fun f -> Queue.push f outq)
      ~journal ()
  in
  let replica =
    Replication.Replica.create ~self:"b1" ~primary:"m0" ~key ~rng ()
  in
  { rng; key; journal; source; replica; outq }

(* Drain the wire loss-free: deliver every queued frame to the replica,
   feed its acks/fetches back to the source (which may queue re-sends),
   until quiescent. *)
let pump p =
  let budget = ref 10_000 in
  while not (Queue.is_empty p.outq) do
    decr budget;
    if !budget < 0 then failwith "replication pump did not quiesce";
    let f = Queue.pop p.outq in
    List.iter
      (fun reply -> Replication.Source.handle_frame p.source reply)
      (Replication.Replica.handle_frame p.replica f)
  done

let converge p =
  Replication.Source.heartbeat p.source;
  pump p

let sample_records n =
  List.init n (fun i ->
      match i mod 4 with
      | 0 ->
          J.Session_established
            { member = Printf.sprintf "u%d" i; key = String.make 16 'k' }
      | 1 -> J.Epoch_bump { key = String.make 16 'g'; epoch = i }
      | 2 ->
          J.Session_established
            { member = Printf.sprintf "v%d" i; key = String.make 16 'q' }
      | _ -> J.Session_closed { member = Printf.sprintf "u%d" (i - 3) })

let check_converged ?(msg = "replica == primary") p =
  Alcotest.(check string) msg (J.contents p.journal)
    (Replication.Replica.contents p.replica)

(* --- deterministic units --- *)

let test_stream_converges () =
  let p = make_pair () in
  List.iter (J.append p.journal) (sample_records 12);
  pump p;
  check_converged p;
  (* Compaction publishes a fresh image; the replica must follow. *)
  J.compact p.journal;
  List.iter (J.append p.journal) (sample_records 3);
  pump p;
  check_converged ~msg:"replica follows compaction" p

let test_gap_detected_and_repaired () =
  let p = make_pair () in
  List.iter (J.append p.journal) (sample_records 2);
  pump p;
  (* Lose the middle of the stream: queue appends, drop some frames. *)
  List.iter (J.append p.journal) (sample_records 6);
  let i = ref 0 in
  while not (Queue.is_empty p.outq) do
    let f = Queue.pop p.outq in
    incr i;
    if !i mod 2 = 0 then
      (* replies are also lost — worst case *)
      ignore (Replication.Replica.handle_frame p.replica f)
  done;
  Alcotest.(check bool) "replica behind after loss" true
    (Replication.Replica.contents p.replica <> J.contents p.journal);
  converge p;
  check_converged ~msg:"heartbeat-driven catch-up" p;
  let stats = Replication.Replica.stats p.replica in
  Alcotest.(check bool) "gap fetches happened" true
    (stats.Replication.gap_fetches >= 1)

let test_forged_key_rejected () =
  let p = make_pair () in
  List.iter (J.append p.journal) (sample_records 4);
  pump p;
  let before = Replication.Replica.contents p.replica in
  ignore (Replication.Replica.take_activity p.replica);
  let wrong = Key.fresh Key.Long_term p.rng in
  let payload =
    P.encode_repl_record
      {
        P.l = "m0";
        b = "b1";
        term = 1;
        seq = Replication.Replica.expected p.replica;
        op = P.Repl_append;
        data = "evil";
      }
  in
  let frame =
    Sealed_channel.seal ~rng:p.rng ~key:wrong ~label:F.Repl_record
      ~sender:"m0" ~recipient:"b1" payload
  in
  Alcotest.(check int) "no reply to a forgery" 0
    (List.length (Replication.Replica.handle_frame p.replica frame));
  Alcotest.(check string) "replica untouched" before
    (Replication.Replica.contents p.replica);
  let stats = Replication.Replica.stats p.replica in
  Alcotest.(check bool) "counted as forged" true
    (stats.Replication.rejected_forged >= 1);
  Alcotest.(check bool) "not liveness" false
    (Replication.Replica.take_activity p.replica)

let test_spliced_frame_rejected () =
  (* A genuine frame for b1, captured off the wire and replayed at b2:
     the header rewrite breaks the AEAD binding, and even an un-rewritten
     header fails the payload's recipient check. *)
  let p = make_pair () in
  let captured = ref None in
  List.iter (J.append p.journal) (sample_records 2);
  (match Queue.peek_opt p.outq with
  | Some f -> captured := Some f
  | None -> Alcotest.fail "no frame on the wire");
  pump p;
  let frame = Option.get !captured in
  let b2 =
    Replication.Replica.create ~self:"b2" ~primary:"m0" ~key:p.key ~rng:p.rng
      ()
  in
  Alcotest.(check int) "b1's frame rejected at b2" 0
    (List.length (Replication.Replica.handle_frame b2 frame));
  let rewritten = { frame with F.recipient = "b2" } in
  Alcotest.(check int) "header rewrite breaks the seal" 0
    (List.length (Replication.Replica.handle_frame b2 rewritten));
  Alcotest.(check string) "b2 still empty" ""
    (Replication.Replica.contents b2);
  let stats = Replication.Replica.stats b2 in
  Alcotest.(check bool) "both counted as forged" true
    (stats.Replication.rejected_forged >= 2)

let test_replayed_record_inert () =
  let p = make_pair () in
  List.iter (J.append p.journal) (sample_records 1);
  let replay_me = Queue.peek p.outq in
  pump p;
  List.iter (J.append p.journal) (sample_records 5);
  pump p;
  let before = Replication.Replica.contents p.replica in
  let expected = Replication.Replica.expected p.replica in
  ignore (Replication.Replica.take_activity p.replica);
  (* An old applied record returns only a re-ack and moves nothing. *)
  (match Replication.Replica.handle_frame p.replica replay_me with
  | [ ack ] -> Alcotest.(check bool) "re-ack" true (ack.F.label = F.Repl_ack)
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected one re-ack, got %d frames"
           (List.length other)));
  Alcotest.(check string) "replica bytes unchanged" before
    (Replication.Replica.contents p.replica);
  Alcotest.(check int) "sequence window unchanged" expected
    (Replication.Replica.expected p.replica);
  let stats = Replication.Replica.stats p.replica in
  Alcotest.(check bool) "counted as replayed" true
    (stats.Replication.rejected_replayed >= 1);
  Alcotest.(check bool) "replay is not liveness" false
    (Replication.Replica.take_activity p.replica)

let test_replayed_heartbeat_not_liveness () =
  let p = make_pair () in
  pump p;
  (* Capture a heartbeat at the current (early) frontier... *)
  Replication.Source.heartbeat p.source;
  let old_hb = Queue.pop p.outq in
  Queue.clear p.outq;
  (* ...advance the replica past it... *)
  List.iter (J.append p.journal) (sample_records 4);
  converge p;
  ignore (Replication.Replica.take_activity p.replica);
  (* ...then replay it: silently dropped, and crucially NOT liveness —
     an attacker replaying old heartbeats must not be able to keep a
     dead primary looking alive to the promotion watchdog. *)
  Alcotest.(check int) "no reply to the stale frontier" 0
    (List.length (Replication.Replica.handle_frame p.replica old_hb));
  Alcotest.(check bool) "replayed heartbeat is not liveness" false
    (Replication.Replica.take_activity p.replica);
  let stats = Replication.Replica.stats p.replica in
  Alcotest.(check bool) "counted as replayed" true
    (stats.Replication.rejected_replayed >= 1)

let test_stale_term_rejected () =
  (* The replica adopts term 2 from a successor's stream; the dead
     term-1 primary's frames must then be counted and dropped. *)
  let p = make_pair () in
  List.iter (J.append p.journal) (sample_records 3);
  let term1_frame = Queue.peek p.outq in
  pump p;
  let j2 = J.create ~compact_every:10_000 () in
  List.iter (J.append j2) (sample_records 5);
  let q2 = Queue.create () in
  let _source2 =
    Replication.Source.create ~self:"m1" ~backups:[ "b1" ] ~term:2 ~key:p.key
      ~rng:p.rng
      ~send:(fun f -> Queue.push f q2)
      ~journal:j2 ()
  in
  while not (Queue.is_empty q2) do
    ignore (Replication.Replica.handle_frame p.replica (Queue.pop q2))
  done;
  Alcotest.(check int) "adopted the successor term" 2
    (Replication.Replica.term p.replica);
  Alcotest.(check string) "resynced from the term-2 snapshot"
    (J.contents j2)
    (Replication.Replica.contents p.replica);
  let before = Replication.Replica.contents p.replica in
  ignore (Replication.Replica.take_activity p.replica);
  (* A dead-term record is dropped, and the sender is told so: the
     reply is the sealed demotion signal that drives reconciliation. *)
  (match Replication.Replica.handle_frame p.replica term1_frame with
  | [ notice ] ->
      Alcotest.(check bool) "reply is a demotion signal" true
        (notice.F.label = F.Repl_stale);
      Alcotest.(check string) "aimed at the zombie" "m0" notice.F.recipient
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected one Repl_stale, got %d frames"
           (List.length other)));
  Alcotest.(check string) "replica untouched by the dead term" before
    (Replication.Replica.contents p.replica);
  let stats = Replication.Replica.stats p.replica in
  Alcotest.(check bool) "counted as stale" true
    (stats.Replication.rejected_stale >= 1);
  Alcotest.(check bool) "a notice was sent" true
    (stats.Replication.stale_notices >= 1);
  Alcotest.(check bool) "stale term is not liveness" false
    (Replication.Replica.take_activity p.replica)

let test_stale_notice_demotes_source () =
  (* Route the replica's demotion signal back to the superseded term-1
     source: it must report itself superseded exactly once. *)
  let p = make_pair () in
  List.iter (J.append p.journal) (sample_records 3);
  let term1_frame = Queue.peek p.outq in
  pump p;
  let j2 = J.create ~compact_every:10_000 () in
  let q2 = Queue.create () in
  let _source2 =
    Replication.Source.create ~self:"m1" ~backups:[ "b1" ] ~term:2 ~key:p.key
      ~rng:p.rng
      ~send:(fun f -> Queue.push f q2)
      ~journal:j2 ()
  in
  while not (Queue.is_empty q2) do
    ignore (Replication.Replica.handle_frame p.replica (Queue.pop q2))
  done;
  let notice =
    match Replication.Replica.handle_frame p.replica term1_frame with
    | [ n ] -> n
    | _ -> Alcotest.fail "expected one Repl_stale"
  in
  Alcotest.(check bool) "not yet superseded" false
    (Replication.Source.superseded p.source);
  Replication.Source.handle_frame p.source notice;
  Alcotest.(check bool) "authentic notice supersedes" true
    (Replication.Source.superseded p.source);
  let stats = Replication.Source.stats p.source in
  Alcotest.(check int) "sourcing stopped once" 1
    stats.Replication.stale_sourcing_stopped;
  (* Idempotent: a second delivery is a replay against a source that
     already stood down — counted, no second callback. *)
  Replication.Source.handle_frame p.source notice;
  let stats = Replication.Source.stats p.source in
  Alcotest.(check int) "no double demotion" 1
    stats.Replication.stale_sourcing_stopped

let test_forged_stale_notice_rejected () =
  (* A fabricated "you are stale" without K_r must never demote a live
     primary — the tentpole's central security claim. *)
  let p = make_pair () in
  List.iter (J.append p.journal) (sample_records 3);
  pump p;
  let wrong = Key.fresh Key.Long_term p.rng in
  let payload =
    P.encode_repl_stale
      { P.b = "b1"; l = "m0"; stale_term = 1; term = 99; primary = "evil" }
  in
  let forged =
    Sealed_channel.seal ~rng:p.rng ~key:wrong ~label:F.Repl_stale ~sender:"b1"
      ~recipient:"m0" payload
  in
  Replication.Source.handle_frame p.source forged;
  Alcotest.(check bool) "forged notice does not demote" false
    (Replication.Source.superseded p.source);
  let stats = Replication.Source.stats p.source in
  Alcotest.(check bool) "counted as forged" true
    (stats.Replication.rejected_forged >= 1);
  (* A genuinely sealed notice whose payload names another source is
     spliced, not ours to act on. *)
  let spliced =
    Sealed_channel.seal ~rng:p.rng ~key:p.key ~label:F.Repl_stale ~sender:"b1"
      ~recipient:"m0"
      (P.encode_repl_stale
         { P.b = "b1"; l = "m9"; stale_term = 1; term = 99; primary = "m9" })
  in
  Replication.Source.handle_frame p.source spliced;
  Alcotest.(check bool) "spliced notice does not demote" false
    (Replication.Source.superseded p.source);
  (* Source still ships: appends keep flowing after the attack. *)
  List.iter (J.append p.journal) (sample_records 1);
  pump p;
  check_converged ~msg:"source still live after forgeries" p

let test_replayed_stale_notice_inert () =
  (* A notice bound to an already-dead stale_term (e.g. recorded
     against an earlier incarnation) must be counted as replayed and
     change nothing. *)
  let p = make_pair ~term:5 () in
  List.iter (J.append p.journal) (sample_records 2);
  pump p;
  (* stale_term = 4 <> current term 5: replay of an old signal. *)
  let old_notice =
    Sealed_channel.seal ~rng:p.rng ~key:p.key ~label:F.Repl_stale ~sender:"b1"
      ~recipient:"m0"
      (P.encode_repl_stale
         { P.b = "b1"; l = "m0"; stale_term = 4; term = 9; primary = "m1" })
  in
  Replication.Source.handle_frame p.source old_notice;
  Alcotest.(check bool) "replayed notice does not demote" false
    (Replication.Source.superseded p.source);
  let stats = Replication.Source.stats p.source in
  Alcotest.(check bool) "counted as replayed" true
    (stats.Replication.rejected_replayed >= 1);
  (* And a degenerate one claiming a NON-higher superseding term is
     equally inert even with the right stale_term. *)
  let non_higher =
    Sealed_channel.seal ~rng:p.rng ~key:p.key ~label:F.Repl_stale ~sender:"b1"
      ~recipient:"m0"
      (P.encode_repl_stale
         { P.b = "b1"; l = "m0"; stale_term = 5; term = 5; primary = "m1" })
  in
  Replication.Source.handle_frame p.source non_higher;
  Alcotest.(check bool) "non-higher term does not demote" false
    (Replication.Source.superseded p.source)

let test_peer_record_demotes_lower_term () =
  (* Two sources meet after a heal: the lower term stands down on the
     higher term's stream; the higher term answers the lower term's
     stream with a demotion signal. *)
  let rng = Prng.Splitmix.create 11L in
  let key = Key.fresh Key.Long_term rng in
  let mk self term peer =
    let j = J.create ~compact_every:10_000 () in
    let q = Queue.create () in
    let s =
      Replication.Source.create ~self ~backups:[ peer ] ~term ~key ~rng
        ~send:(fun f -> Queue.push f q)
        ~journal:j ()
    in
    (s, j, q)
  in
  let old_s, old_j, old_q = mk "m0" 5 "m1" in
  let new_s, _new_j, new_q = mk "m1" 7 "m0" in
  List.iter (J.append old_j) (sample_records 2);
  (* Old primary's dead-term records reach the live source... *)
  Queue.iter
    (fun f ->
      if f.F.recipient = "m1" then Replication.Source.handle_peer_record new_s f)
    old_q;
  Alcotest.(check bool) "higher term unmoved" false
    (Replication.Source.superseded new_s);
  let stats = Replication.Source.stats new_s in
  Alcotest.(check bool) "zombie traffic counted stale" true
    (stats.Replication.rejected_stale >= 1);
  Alcotest.(check bool) "demotion signals queued" true
    (stats.Replication.stale_notices >= 1);
  (* ...and the notices (plus the live stream itself) demote it. *)
  Queue.iter
    (fun f ->
      if f.F.recipient = "m0" then
        if f.F.label = F.Repl_stale then
          Replication.Source.handle_frame old_s f
        else Replication.Source.handle_peer_record old_s f)
    new_q;
  Alcotest.(check bool) "lower term stands down" true
    (Replication.Source.superseded old_s)

(* --- the demotion cut: no acked record is ever lost --- *)

let prop_acked_prefix_never_loses =
  QCheck.Test.make ~count:80
    ~name:"demotion keeps every record acked under the common term"
    QCheck.(pair (int_range 1 30) (int_range 0 100))
    (fun (n_records, deliver_pct) ->
      (* Deliver a random prefix of the stream, pump acks for it, then
         ask what a demotion would keep: it must be exactly the bytes
         the replica already holds — a clean, replayable prefix of the
         source journal containing every acknowledged record. *)
      let p = make_pair () in
      List.iter (J.append p.journal) (sample_records n_records);
      let frames = List.of_seq (Queue.to_seq p.outq) in
      Queue.clear p.outq;
      let cut = List.length frames * deliver_pct / 100 in
      List.iteri
        (fun i f ->
          if i < cut then
            List.iter
              (fun reply -> Replication.Source.handle_frame p.source reply)
              (Replication.Replica.handle_frame p.replica f))
        frames;
      let keep = Replication.Source.acked_prefix p.source in
      let journal = J.contents p.journal in
      keep <= String.length journal
      && String.sub journal 0 keep = Replication.Replica.contents p.replica
      (* keep = 0 (nothing acked, keep nothing) has no header to replay *)
      && (keep = 0 || snd (J.replay (String.sub journal 0 keep)) = J.Clean))

let test_acked_prefix_compaction_floor () =
  (* When the best ack predates the last compaction, the cut must land
     at the image boundary — the folded image contains the acked
     records, so cutting below it would lose them. *)
  let p = make_pair () in
  List.iter (J.append p.journal) (sample_records 6);
  pump p;  (* replica acks everything so far *)
  let acked_all = Replication.Source.acked_prefix p.source in
  Alcotest.(check int) "fully acked means keep everything"
    (String.length (J.contents p.journal))
    acked_all;
  (* Compact, then append un-acked records (replies dropped). *)
  J.compact p.journal;
  List.iter (J.append p.journal) (sample_records 4);
  Queue.clear p.outq;
  let keep = Replication.Source.acked_prefix p.source in
  let kept = String.sub (J.contents p.journal) 0 keep in
  Alcotest.(check bool) "cut lands at (or above) the image" true (keep > 0);
  let recs, status = J.replay kept in
  Alcotest.(check bool) "kept prefix replays clean" true (status = J.Clean);
  (* Every session the replica acked before compaction survives in the
     folded state of the kept prefix. *)
  let module SS = Set.Make (String) in
  let sessions recs =
    SS.of_list (List.map fst (J.state_of_records recs).J.sessions)
  in
  let acked_recs, _ = J.replay (Replication.Replica.contents p.replica) in
  Alcotest.(check bool) "no acked session lost by the cut" true
    (SS.subset (sessions acked_recs) (sessions recs))

(* --- the qcheck property: convergence under arbitrary mangling --- *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Int64.to_int (Int64.rem (Prng.Splitmix.next rng) (Int64.of_int (i + 1))) in
    let j = abs j in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let prop_converges_after_mangling =
  QCheck.Test.make ~count:60
    ~name:"replica replay == primary replay after truncation/reorder/loss"
    QCheck.(
      triple (int_range 1 25) (small_list (int_range 0 2)) int64)
    (fun (n_records, actions, mangle_seed) ->
      let p = make_pair () in
      List.iter (J.append p.journal) (sample_records n_records);
      if n_records mod 3 = 0 then J.compact p.journal;
      (* Collect the whole forward stream, then mangle it: per-frame
         drop / keep / duplicate, then an arbitrary reorder. All the
         replica's replies are lost during the chaos phase. *)
      let frames = List.of_seq (Queue.to_seq p.outq) in
      Queue.clear p.outq;
      let act i =
        match actions with
        | [] -> 1
        | _ -> List.nth actions (i mod List.length actions)
      in
      let mangled =
        List.concat
          (List.mapi
             (fun i f ->
               match act i with 0 -> [] | 1 -> [ f ] | _ -> [ f; f ])
             frames)
      in
      let mangled = shuffle (Prng.Splitmix.create mangle_seed) mangled in
      List.iter
        (fun f -> ignore (Replication.Replica.handle_frame p.replica f))
        mangled;
      (* Now the network behaves: one heartbeat round trip with the
         loss-free pump must reconverge the replica exactly. *)
      converge p;
      let primary_replay = J.replay (J.contents p.journal) in
      let replica_replay =
        J.replay (Replication.Replica.contents p.replica)
      in
      J.contents p.journal = Replication.Replica.contents p.replica
      && primary_replay = replica_replay)

(* --- the durable epoch vault --- *)

let test_vault_monotonic_torn_write () =
  let mem = Store.Mem.create () in
  let disk = Store.Mem.handle mem in
  let v = Store.Vault.create ~disk () in
  Alcotest.(check int) "empty vault" 0 (Store.Vault.get v);
  Store.Vault.put v 3;
  Store.Vault.put v 7;
  Store.Vault.put v 5;
  (* monotonic: lower puts ignored *)
  Alcotest.(check int) "monotonic max" 7 (Store.Vault.get v);
  (* Reopen from the durable bytes — the restart path. *)
  let v' = Store.Vault.load ~disk () in
  Alcotest.(check int) "survives reopen" 7 (Store.Vault.get v');
  (* A torn write can only damage the slot NOT holding the maximum:
     corrupt each 16-byte slot in turn and check degradation. *)
  let bytes = Store.Vault.contents v' in
  let smash lo =
    let b = Bytes.of_string bytes in
    Bytes.fill b lo 16 '\xff';
    Store.Vault.of_bytes (Bytes.to_string b)
  in
  let hdr = String.length bytes - 32 in
  let one = smash hdr and two = smash (hdr + 16) in
  Alcotest.(check bool) "one slot always survives" true
    (Store.Vault.get one = 7 || Store.Vault.get two = 7);
  Alcotest.(check bool) "damage degrades, never invents" true
    (Store.Vault.get one <= 7 && Store.Vault.get two <= 7)

let test_vault_total_on_junk () =
  List.iter
    (fun junk ->
      let v = Store.Vault.of_bytes junk in
      Alcotest.(check int)
        (Printf.sprintf "junk %S reads as empty" junk)
        0 (Store.Vault.get v))
    [ ""; "x"; String.make 40 '\x00'; "EVLT"; String.make 5000 'z' ]

(* E19b closed: a cold restart whose journal lost the final Epoch_bump
   record must still beacon the vault's (current) epoch, so members
   accept the beacon instead of rejecting it as stale. *)
let test_vault_saves_beacon_epoch () =
  let module D = Driver.Improved in
  let directory = [ ("alice", "pw-a"); ("bob", "pw-b"); ("carol", "pw-c") ] in
  let d =
    D.create ~seed:31L ~leader:"leader" ~directory ~retry:D.default_retry
      ~recovery:D.default_recovery ()
  in
  List.iter (fun (n, _) -> D.join d n) directory;
  ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
  D.rekey d;
  ignore (D.run ~until:(Netsim.Vtime.of_s 3) d);
  D.crash_leader d;
  (* Drop the journal's LAST Epoch_bump — the torn-tail scenario. *)
  let bytes = Option.get (D.journal_bytes d) in
  let recs, status = J.replay bytes in
  Alcotest.(check bool) "journal clean before damage" true (status = J.Clean);
  let last_bump =
    let rec go i best = function
      | [] -> best
      | J.Epoch_bump _ :: tl -> go (i + 1) i tl
      | _ :: tl -> go (i + 1) best tl
    in
    go 0 (-1) recs
  in
  Alcotest.(check bool) "a bump is journalled" true (last_bump >= 0);
  let damaged_recs = List.filteri (fun i _ -> i <> last_bump) recs in
  let damaged =
    let j = J.create ~compact_every:10_000 () in
    List.iter (J.append j) damaged_recs;
    J.contents j
  in
  let journal_epoch =
    match (J.state_of_records damaged_recs).J.group_key with
    | Some (_, e) -> e
    | None -> 0
  in
  ignore (D.restart_leader ~warm:false ~journal_bytes:damaged d);
  (* The vault out-remembers the damaged journal... *)
  let vault_epoch =
    match D.epoch_vault d with
    | Some v -> Store.Vault.get v
    | None -> Alcotest.fail "no vault with recovery enabled"
  in
  Alcotest.(check bool)
    (Printf.sprintf "vault (%d) ahead of damaged journal (%d)" vault_epoch
       journal_epoch)
    true
    (vault_epoch > journal_epoch);
  (* ...so every member takes the fast beacon path; nobody rejects the
     beacon as stale and waits out the anti-entropy watchdog. *)
  ignore (D.run ~until:(Netsim.Vtime.of_s 8) d);
  let rs = D.recovery_stats d in
  Alcotest.(check int) "everyone rejoined via the beacon" 3 rs.D.beacon_reauths;
  Alcotest.(check int) "nobody paid the watchdog" 0 rs.D.cold_reauths;
  Alcotest.(check bool) "views converged" true (D.view_converged d)

(* --- the promotion watchdog as replica moves --- *)

let watchdog_ticks r n =
  List.init n (fun _ ->
      Replication.Replica.tick r ~period:(Netsim.Vtime.of_ms 100)
        ~after:(Netsim.Vtime.of_ms 400))

let test_replica_promotes_at_threshold () =
  let p = make_pair () in
  pump p;
  Alcotest.(check (list bool))
    "the snapshot is liveness; four silent periods promote"
    [ false; false; false; false; true ]
    (watchdog_ticks p.replica 5);
  Alcotest.(check int64) "exactly at the threshold" (Netsim.Vtime.of_ms 400)
    (Replication.Replica.quiet p.replica);
  List.iter (J.append p.journal) (sample_records 1);
  pump p;
  Alcotest.(check (list bool))
    "an accepted record restarts the count"
    [ false; false; false; false; true ]
    (watchdog_ticks p.replica 5)

let test_demoted_replica_waits_for_snapshot () =
  let p = make_pair () in
  let snapshot = Queue.pop p.outq in
  Replication.Source.heartbeat p.source;
  let heartbeat = Queue.pop p.outq in
  let r =
    Replication.Replica.create ~self:"b1" ~primary:"m0" ~key:p.key ~rng:p.rng
      ~term:1 ~catching_up:true ()
  in
  (* The heartbeat proves a frontier ahead: liveness, but no snapshot. *)
  ignore (Replication.Replica.handle_frame r heartbeat);
  Alcotest.(check bool) "no promotion before the first snapshot" false
    (List.exists Fun.id (watchdog_ticks r 20));
  Alcotest.(check bool) "still catching up" true
    (Replication.Replica.catching_up r);
  ignore (Replication.Replica.handle_frame r snapshot);
  Alcotest.(check (list bool))
    "promotable once the snapshot landed"
    [ false; false; false; false; true ]
    (watchdog_ticks r 5);
  Alcotest.(check bool) "caught up" false (Replication.Replica.catching_up r)

(* --- warm failover under seeded network faults --- *)

let fo_directory = [ ("alice", "pw-a"); ("bob", "pw-b"); ("carol", "pw-c") ]

let fo_config =
  {
    Failover.heartbeat_period = Netsim.Vtime.of_ms 100;
    failure_timeout = Netsim.Vtime.of_ms 400;
    check_period = Netsim.Vtime.of_ms 100;
    failback_after = Netsim.Vtime.of_ms 800;
    warm_failover = true;
  }

let test_warm_failover_under_loss () =
  (* Kill the primary under 10% uniform loss, several seeds: the
     successor must promote warm exactly once and every member must end
     up in session with it. Lost challenges are covered by the manager
     scan's retransmission; a member whose challenge exchange dies
     completely falls back cold — also acceptable, but the group must
     reconverge either way. *)
  List.iter
    (fun seed ->
      let t =
        Failover.create ~seed ~config:fo_config
          ~managers:[ "m0"; "m1"; "m2" ] ~directory:fo_directory ()
      in
      Netsim.Network.set_faultplan (Failover.net t)
        (Some (Netsim.Faultplan.uniform_loss 0.10));
      Failover.start t;
      ignore (Failover.run ~until:(Netsim.Vtime.of_ms 800) t);
      let keys_before =
        List.filter_map
          (fun (n, _) ->
            Option.map (fun k -> (n, k))
              (Member.session_key (Failover.member t n)))
          fo_directory
      in
      Failover.crash_primary t;
      ignore (Failover.run ~until:(Netsim.Vtime.of_s 12) t);
      Alcotest.(check (list string))
        (Printf.sprintf "all reconnected (seed %Ld)" seed)
        [ "alice"; "bob"; "carol" ]
        (Failover.connected_members t);
      let stats = Failover.replication_stats t in
      Alcotest.(check int)
        (Printf.sprintf "one warm promotion (seed %Ld)" seed)
        1 stats.Replication.warm_promotions;
      let retained =
        List.length
          (List.filter
             (fun (n, before) ->
               match Member.session_key (Failover.member t n) with
               | Some after -> Key.equal before after
               | None -> false)
             keys_before)
      in
      Alcotest.(check bool)
        (Printf.sprintf "sessions retained under loss (seed %Ld): %d" seed
           retained)
        true (retained >= 2))
    [ 101L; 202L; 303L ]

let test_repl_lag_observable () =
  (* Slow the replication links: the lag report must show the backups
     behind while traffic flows, and catch up once the burst ends. *)
  let t =
    Failover.create ~seed:9L ~config:fo_config ~managers:[ "m0"; "m1"; "m2" ]
      ~directory:fo_directory ()
  in
  Failover.start t;
  ignore (Failover.run ~until:(Netsim.Vtime.of_ms 600) t);
  let lag = Failover.replication_lag t in
  Alcotest.(check int) "both backups tracked" 2 (List.length lag);
  ignore (Failover.run ~until:(Netsim.Vtime.of_s 3) t);
  List.iter
    (fun (b, l) ->
      Alcotest.(check int) (Printf.sprintf "%s fully caught up" b) 0 l)
    (Failover.replication_lag t);
  List.iter
    (fun (b, silence) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s heard the primary recently" b)
        true
        Netsim.Vtime.(silence <= fo_config.Failover.heartbeat_period))
    (Failover.replication_silence t)

let suite =
  [
    ( "replication (warm standby)",
      [
        Alcotest.test_case "stream converges" `Quick test_stream_converges;
        Alcotest.test_case "gap detected and repaired" `Quick
          test_gap_detected_and_repaired;
        Alcotest.test_case "forged key rejected" `Quick test_forged_key_rejected;
        Alcotest.test_case "spliced frame rejected" `Quick
          test_spliced_frame_rejected;
        Alcotest.test_case "replayed record inert" `Quick
          test_replayed_record_inert;
        Alcotest.test_case "replayed heartbeat not liveness" `Quick
          test_replayed_heartbeat_not_liveness;
        Alcotest.test_case "stale term rejected" `Quick test_stale_term_rejected;
        Alcotest.test_case "stale notice demotes the zombie source" `Quick
          test_stale_notice_demotes_source;
        Alcotest.test_case "forged stale notice rejected" `Quick
          test_forged_stale_notice_rejected;
        Alcotest.test_case "replayed stale notice inert" `Quick
          test_replayed_stale_notice_inert;
        Alcotest.test_case "peer record demotes the lower term" `Quick
          test_peer_record_demotes_lower_term;
        Alcotest.test_case "acked prefix: compaction floor" `Quick
          test_acked_prefix_compaction_floor;
        QCheck_alcotest.to_alcotest prop_converges_after_mangling;
        QCheck_alcotest.to_alcotest prop_acked_prefix_never_loses;
        Alcotest.test_case "vault: monotonic, torn-write safe" `Quick
          test_vault_monotonic_torn_write;
        Alcotest.test_case "vault: total on junk" `Quick test_vault_total_on_junk;
        Alcotest.test_case "vault saves the beacon epoch (E19b)" `Quick
          test_vault_saves_beacon_epoch;
        Alcotest.test_case "watchdog: promotes at its threshold" `Quick
          test_replica_promotes_at_threshold;
        Alcotest.test_case "watchdog: a demoted replica awaits its snapshot"
          `Quick test_demoted_replica_waits_for_snapshot;
        Alcotest.test_case "warm failover under loss" `Quick
          test_warm_failover_under_loss;
        Alcotest.test_case "replication lag observable" `Quick
          test_repl_lag_observable;
      ] );
  ]
