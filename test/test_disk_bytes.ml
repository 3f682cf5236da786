(* On-disk bytes pinned: fixed workloads over the leader journal, a
   delivery queue, the epoch vault and a replication replica, each
   recorded through a crash-point recorder. Every workload compacts or
   republishes its image at least once. The test pins the MD5 of every
   durable file and the rendering of the backend-op sequence that
   produced it, so a change to a record codec, a framing, a compaction
   trigger or the order of pwrite/fsync/rename/remove shows here. *)

open Enclaves
module J = Journal
module Q = Store.Queue
module CP = Store.Crashpoint

let k c = String.make 16 c

(* Run [f] against a fresh recorded disk; return the durable image of
   every file (as MD5 hex) and the rendered op sequence. *)
let recorded f =
  let mem = Store.Mem.create () in
  let r = CP.recorder mem in
  f (CP.handle r);
  let digests =
    List.map
      (fun (file, bytes) -> (file, Digest.to_hex (Digest.string bytes)))
      (Store.Mem.crash_image mem)
  in
  let ops = List.map (Format.asprintf "%a" CP.pp_op) (CP.ops r) in
  (digests, ops)

let journal_workload disk =
  let j = J.create ~compact_every:3 ~disk () in
  J.append j (J.Session_established { member = "alice"; key = k 'a' });
  J.append j (J.Session_established { member = "bob"; key = k 'b' });
  J.append j (J.Epoch_bump { key = k 'g'; epoch = 1 });
  (* The fourth record passes [compact_every]: an automatic snapshot. *)
  J.append j (J.Session_closed { member = "bob" });
  J.append j (J.Epoch_bump { key = k 'h'; epoch = 2 });
  J.compact j;
  J.set_durable j false;
  J.append j (J.Session_established { member = "carol"; key = k 'c' });
  J.set_durable j true;
  J.compact j;
  let j', _, _ = J.load ~disk () in
  J.append j' (J.Session_closed { member = "alice" })

let queue_workload disk =
  let q = Q.create ~compact_every:3 ~disk ~file:"queue-m1" () in
  ignore (Q.push q ~epoch:1 "first");
  ignore (Q.push q ~epoch:1 "second");
  Q.ack q ~upto:1;
  (* The fourth record passes [compact_every]: an automatic snapshot. *)
  Q.drop q ~seq:1;
  ignore (Q.push q ~epoch:2 "third");
  Q.set_durable q false;
  ignore (Q.push q ~epoch:2 "fourth");
  Q.set_durable q true;
  Q.compact q;
  let q', _, _ = Q.load ~file:"queue-m1" ~disk () in
  ignore (Q.push q' ~epoch:3 "fifth")

let vault_workload disk =
  let v = Store.Vault.create ~disk () in
  List.iter (Store.Vault.put v) [ 1; 2; 5; 3 ];
  let v' = Store.Vault.of_bytes ~disk (Store.Vault.contents v) in
  Store.Vault.put v' 7

let replica_workload disk =
  let rng = Prng.Splitmix.create 5L in
  let key = Sym_crypto.Key.fresh Sym_crypto.Key.Long_term rng in
  let journal = J.create ~compact_every:3 () in
  let wire = Queue.create () in
  let replica =
    Replication.Replica.create ~self:"b1" ~primary:"m0" ~key ~rng ~disk ()
  in
  let source =
    Replication.Source.create ~self:"m0" ~backups:[ "b1" ] ~term:1 ~key ~rng
      ~send:(fun f -> Queue.push f wire)
      ~journal ()
  in
  let pump () =
    while not (Queue.is_empty wire) do
      List.iter
        (Replication.Source.handle_frame source)
        (Replication.Replica.handle_frame replica (Queue.pop wire))
    done
  in
  pump ();
  J.append journal (J.Session_established { member = "alice"; key = k 'a' });
  J.append journal (J.Epoch_bump { key = k 'g'; epoch = 1 });
  pump ();
  Replication.Source.ship_queue_image source ~file:"queue-alice" "image-1";
  J.append journal (J.Session_established { member = "bob"; key = k 'b' });
  (* The fourth record passes [compact_every]: the replica takes the
     snapshot image. *)
  J.append journal (J.Session_closed { member = "alice" });
  pump ();
  Replication.Source.ship_queue_image source ~file:"queue-alice" "image-22";
  J.append journal (J.Epoch_bump { key = k 'h'; epoch = 2 });
  pump ()

let lines s = String.split_on_char '\n' (String.trim s)

let check_pinned name workload ~digests ~ops () =
  let got_digests, got_ops = recorded workload in
  Alcotest.(check (list (pair string string)))
    (name ^ ": durable file digests") digests got_digests;
  Alcotest.(check (list string)) (name ^ ": backend ops") (lines ops) got_ops

let journal_digests =
  [ ("journal", "26ea2507642b81d846341b67cefeaf2a") ]

let journal_ops =
  {|
remove journal.tmp
pwrite journal.tmp@0 (5 bytes)
fsync journal.tmp
rename journal.tmp -> journal
pwrite journal@5 (46 bytes)
fsync journal
pwrite journal@51 (44 bytes)
fsync journal
pwrite journal@95 (41 bytes)
fsync journal
remove journal.tmp
pwrite journal.tmp@0 (84 bytes)
fsync journal.tmp
rename journal.tmp -> journal
pwrite journal@84 (41 bytes)
fsync journal
remove journal.tmp
pwrite journal.tmp@0 (84 bytes)
fsync journal.tmp
rename journal.tmp -> journal
remove journal.tmp
pwrite journal.tmp@0 (113 bytes)
fsync journal.tmp
rename journal.tmp -> journal
remove journal.tmp
pwrite journal.tmp@0 (5 bytes)
fsync journal.tmp
rename journal.tmp -> journal
remove journal.tmp
pwrite journal.tmp@0 (113 bytes)
fsync journal.tmp
rename journal.tmp -> journal
pwrite journal@113 (26 bytes)
fsync journal
|}

let queue_digests =
  [ ("queue-m1", "976898b48670d0e0c89ca76f2dc4b4ca") ]

let queue_ops =
  {|
remove queue-m1.tmp
pwrite queue-m1.tmp@0 (5 bytes)
fsync queue-m1.tmp
rename queue-m1.tmp -> queue-m1
pwrite queue-m1@5 (34 bytes)
fsync queue-m1
pwrite queue-m1@39 (35 bytes)
fsync queue-m1
pwrite queue-m1@74 (21 bytes)
fsync queue-m1
remove queue-m1.tmp
pwrite queue-m1.tmp@0 (34 bytes)
fsync queue-m1.tmp
rename queue-m1.tmp -> queue-m1
pwrite queue-m1@34 (34 bytes)
fsync queue-m1
remove queue-m1.tmp
pwrite queue-m1.tmp@0 (69 bytes)
fsync queue-m1.tmp
rename queue-m1.tmp -> queue-m1
remove queue-m1.tmp
pwrite queue-m1.tmp@0 (5 bytes)
fsync queue-m1.tmp
rename queue-m1.tmp -> queue-m1
remove queue-m1.tmp
pwrite queue-m1.tmp@0 (69 bytes)
fsync queue-m1.tmp
rename queue-m1.tmp -> queue-m1
pwrite queue-m1@69 (34 bytes)
fsync queue-m1
|}

let vault_digests =
  [ ("epoch_vault", "3eff9c3266293622db4aef8ce1fa4343") ]

let vault_ops =
  {|
pwrite epoch_vault@0 (37 bytes)
fsync epoch_vault
pwrite epoch_vault@5 (16 bytes)
fsync epoch_vault
pwrite epoch_vault@21 (16 bytes)
fsync epoch_vault
pwrite epoch_vault@5 (16 bytes)
fsync epoch_vault
pwrite epoch_vault@0 (37 bytes)
fsync epoch_vault
pwrite epoch_vault@21 (16 bytes)
fsync epoch_vault
|}

let replica_digests =
  [
    ("journal_replica", "57212e09d311558a6223dec582fa80f5");
    ("queue-alice", "eaf84546dff24e465fcc66fe684becc2");
  ]

let replica_ops =
  {|
remove journal_replica.tmp
pwrite journal_replica.tmp@0 (5 bytes)
fsync journal_replica.tmp
rename journal_replica.tmp -> journal_replica
pwrite journal_replica@5 (46 bytes)
fsync journal_replica
pwrite journal_replica@51 (41 bytes)
fsync journal_replica
remove queue-alice.tmp
pwrite queue-alice.tmp@0 (7 bytes)
fsync queue-alice.tmp
rename queue-alice.tmp -> queue-alice
pwrite journal_replica@92 (44 bytes)
fsync journal_replica
remove journal_replica.tmp
pwrite journal_replica.tmp@0 (82 bytes)
fsync journal_replica.tmp
rename journal_replica.tmp -> journal_replica
remove queue-alice.tmp
pwrite queue-alice.tmp@0 (7 bytes)
fsync queue-alice.tmp
rename queue-alice.tmp -> queue-alice
remove queue-alice.tmp
pwrite queue-alice.tmp@0 (8 bytes)
fsync queue-alice.tmp
rename queue-alice.tmp -> queue-alice
pwrite journal_replica@82 (41 bytes)
fsync journal_replica
|}

let suite =
  [
    ( "disk bytes",
      [
        Alcotest.test_case "journal image and op order" `Quick
          (check_pinned "journal" journal_workload ~digests:journal_digests
             ~ops:journal_ops);
        Alcotest.test_case "queue image and op order" `Quick
          (check_pinned "queue" queue_workload ~digests:queue_digests
             ~ops:queue_ops);
        Alcotest.test_case "vault image and op order" `Quick
          (check_pinned "vault" vault_workload ~digests:vault_digests
             ~ops:vault_ops);
        Alcotest.test_case "replica images and op order" `Quick
          (check_pinned "replica" replica_workload ~digests:replica_digests
             ~ops:replica_ops);
      ] );
  ]
