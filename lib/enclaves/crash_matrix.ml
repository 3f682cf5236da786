(* ALICE-style crash-consistency matrices for the durable logs.

   A deterministic workload runs against a log whose disk is a
   {!Store.Crashpoint.recorder}. Every backend operation is logged;
   {!Store.Crashpoint.enumerate} then produces every disk image a crash
   could leave behind — durable and volatile views at every operation
   boundary plus torn-write variants — and [check] feeds each one back
   through replay and recovery. The three matrices (journal, delivery
   queue, degraded-mode queue) differ only in workload and in the
   log-specific invariants they add per image; [check] asserts the
   shared ones:

   - totality: neither replay nor recovery ever raises, and recovery
     lands on the replayed fold;
   - durability: once a mutation has returned (its fsync completed),
     the durable image at that boundary is exactly the acknowledged
     image and replays Clean to the acknowledged state — nothing
     acknowledged is ever lost;
   - a floor (the journal's next epoch, the queue's ack floor) that
     never moves backward across boundaries in time order. *)

module CP = Store.Crashpoint

type violation = { image : string; invariant : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s: %s" v.invariant v.image v.detail

type report = {
  ops : int;
  boundaries : int;
  images : int;
  unique_images : int;
  clean : int;
  damaged : int;
  checkpoints : int;
  violations : violation list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "crash-matrix: %d ops, %d boundaries, %d images (%d distinct): %d clean, \
     %d damaged, %d durability checkpoints, %d violations"
    r.ops r.boundaries r.images r.unique_images r.clean r.damaged r.checkpoints
    (List.length r.violations)

type 'state checkpoint = {
  boundary : int;
  bytes : string;
  state : 'state option;
}

let check (type t r s)
    (module L : Store.Log.S
      with type t = t
       and type record = r
       and type state = s)
    ~torn ~file ~floor:(floor_invariant, floor_of) ~image ops checkpoints =
  let violations = ref [] in
  let flag image invariant detail =
    violations := { image; invariant; detail } :: !violations
  in
  let file_in files = Option.value ~default:"" (List.assoc_opt file files) in
  let durable_at b = file_in (CP.durable_at ops b) in
  let clean = ref 0 and damaged = ref 0 in
  let check_image (img : CP.image) =
    let bytes = file_in img.CP.files in
    match L.replay bytes with
    | exception e ->
        flag img.CP.label "replay-total"
          (Printf.sprintf "replay raised %s" (Printexc.to_string e))
    | records, status -> (
        (match status with
        | Store.Log.Clean -> incr clean
        | Store.Log.Damaged _ -> incr damaged);
        let state = L.state_of_records records in
        match L.recover bytes with
        | exception e ->
            flag img.CP.label "recover-total"
              (Printf.sprintf "recover raised %s" (Printexc.to_string e))
        | t, _, _ ->
            if L.state t <> state then
              flag img.CP.label "recover-total"
                "recovered state differs from replayed fold";
            List.iter
              (fun (invariant, detail) -> flag img.CP.label invariant detail)
              (image records state t))
  in
  let images = CP.enumerate ~torn ops in
  List.iter check_image images;
  List.iter
    (fun { boundary; bytes; state } ->
      let label = Printf.sprintf "checkpoint at boundary %d" boundary in
      let durable = durable_at boundary in
      if durable <> bytes then
        flag label "durability"
          (Printf.sprintf
             "durable image (%d bytes) != acknowledged image (%d bytes)"
             (String.length durable) (String.length bytes))
      else if bytes <> "" then
        match (L.replay durable, state) with
        | (_, Store.Log.Damaged _), _ ->
            flag label "durability" "acknowledged image replays damaged"
        | (records, Store.Log.Clean), Some st ->
            if L.state_of_records records <> st then
              flag label "durability"
                "replayed state differs from acknowledged state"
        | (_, Store.Log.Clean), None -> ())
    checkpoints;
  let n_ops = List.length ops in
  let last = ref 0 in
  for b = 0 to n_ops do
    let v = floor_of (L.state_of_records (fst (L.replay (durable_at b)))) in
    if v < !last then
      flag
        (Printf.sprintf "boundary %d: durable" b)
        floor_invariant
        (Printf.sprintf "durable floor regressed %d -> %d" !last v);
    last := max !last v
  done;
  {
    ops = n_ops;
    boundaries = n_ops + 1;
    images = List.length images;
    unique_images = CP.dedup_count images;
    clean = !clean;
    damaged = !damaged;
    checkpoints = List.length checkpoints;
    violations = List.rev !violations;
  }

let key_of rng =
  String.init Sym_crypto.Key.size (fun _ ->
      Char.chr (Prng.Splitmix.next_int rng 256))

(* --- the journal --- *)

(* Ground truth for the resurrection check: fold the replayed records
   independently of [Journal.state_of_records], keeping only the LAST
   event per member. *)
let alive_per_records records =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r with
      | Journal.Session_established { member; _ } ->
          Hashtbl.replace tbl member true
      | Journal.Session_closed { member } -> Hashtbl.replace tbl member false
      | Journal.Epoch_bump _ -> ()
      | Journal.Snapshot s ->
          Hashtbl.reset tbl;
          List.iter (fun (m, _) -> Hashtbl.replace tbl m true) s.Journal.sessions)
    records;
  Hashtbl.fold (fun m alive acc -> if alive then m :: acc else acc) tbl []
  |> List.sort String.compare

let max_epoch_mentioned records =
  List.fold_left
    (fun acc r ->
      match r with
      | Journal.Epoch_bump { epoch; _ } -> max acc epoch
      | Journal.Snapshot s ->
          let e =
            match s.Journal.group_key with Some (_, e) -> e | None -> 0
          in
          max acc (max e (s.Journal.next_epoch - 1))
      | _ -> acc)
    0 records

(* Per image: no resurrection (a member whose last surviving record is
   a close is absent), an epoch counter that clears every journalled
   epoch, and a leader that recovers from the image and challenges
   exactly the journalled sessions. *)
let journal_image ~seed ~directory records (state : Journal.state) j =
  let got = List.map fst state.Journal.sessions in
  let expect = alive_per_records records in
  let floor = max_epoch_mentioned records in
  List.concat
    [
      (if got <> expect then
         [
           ( "non-resurrection",
             Printf.sprintf "recovered sessions [%s], last-event fold says [%s]"
               (String.concat ", " got)
               (String.concat ", " expect) );
         ]
       else []);
      (if state.Journal.next_epoch <= floor then
         [
           ( "epoch-monotone",
             Printf.sprintf "next_epoch %d does not clear max journalled epoch %d"
               state.Journal.next_epoch floor );
         ]
       else []);
      (match state.Journal.group_key with
      | Some (_, e) when e >= state.Journal.next_epoch ->
          [
            ( "epoch-monotone",
              Printf.sprintf "group epoch %d >= next_epoch %d" e
                state.Journal.next_epoch );
          ]
      | _ -> []);
      (match
         Leader.recover ~self:"leader"
           ~rng:(Prng.Splitmix.create (Int64.add seed 1L))
           ~directory ~journal:j ~state ()
       with
      | exception e ->
          [
            ( "recover-total",
              Printf.sprintf "Leader.recover raised %s" (Printexc.to_string e) );
          ]
      | _, frames ->
          let n = List.length state.Journal.sessions in
          if List.length frames <> n then
            [
              ( "recover-total",
                Printf.sprintf "%d recovery challenges for %d sessions"
                  (List.length frames) n );
            ]
          else []);
    ]

let run ?(members = 4) ?(appends = 24) ?(compact_every = 8) ?(seed = 11L)
    ?(torn = true) () =
  let rng = Prng.Splitmix.create seed in
  let directory =
    List.init members (fun i ->
        let name = Printf.sprintf "m%d" i in
        (name, name ^ "-pw"))
  in
  let rec_ = CP.recorder (Store.Mem.create ()) in
  let j = Journal.create ~compact_every ~disk:(CP.handle rec_) () in
  let checkpoints = ref [] in
  let mark () =
    checkpoints :=
      {
        boundary = List.length (CP.ops rec_);
        bytes = Journal.contents j;
        state = Some (Journal.state j);
      }
      :: !checkpoints
  in
  mark ();
  let append record =
    Journal.append j record;
    mark ()
  in
  let epoch = ref 0 in
  let bump () =
    incr epoch;
    append (Journal.Epoch_bump { key = key_of rng; epoch = !epoch })
  in
  let establish m =
    append (Journal.Session_established { member = m; key = key_of rng })
  in
  let close m = append (Journal.Session_closed { member = m }) in
  (* [m1] closes and re-establishes (resurrection must be allowed
     through the front door); [m2] closes and stays closed
     (resurrection through recovery is the bug we hunt). *)
  List.iter (fun (m, _) -> establish m) directory;
  bump ();
  if members > 1 then close "m1";
  bump ();
  if members > 1 then establish "m1";
  if members > 2 then close "m2";
  for _ = 1 to appends do
    bump ()
  done;
  check
    (module Journal)
    ~torn ~file:(Journal.file j)
    ~floor:("epoch-monotone", fun s -> s.Journal.next_epoch)
    ~image:(journal_image ~seed ~directory)
    (CP.ops rec_) (List.rev !checkpoints)

(* --- the delivery queue --- *)

(* No duplicate after replay: the recovered pending seqs strictly
   increase, none lies below the ack floor or at or past next_seq — so
   a drain can never deliver an entry twice from a crash image. *)
let queue_image _ (state : Store.Queue.state) _ =
  let dup fmt = Printf.ksprintf (fun detail -> ("no-duplicate", detail)) fmt in
  let { Store.Queue.floor; next_seq; pending } = state in
  let rec walk last = function
    | [] -> []
    | (e : Store.Queue.entry) :: rest ->
        let seq = e.Store.Queue.seq in
        List.concat
          [
            (if seq <= last then
               [ dup "pending seq %d repeats or regresses after %d" seq last ]
             else []);
            (if seq < floor then
               [ dup "pending seq %d below ack floor %d" seq floor ]
             else []);
            (if seq >= next_seq then
               [ dup "pending seq %d at or past next_seq %d" seq next_seq ]
             else []);
            walk seq rest;
          ]
  in
  walk (-1) pending

let check_queue ~torn ~file ops checkpoints =
  check
    (module Store.Queue)
    ~torn ~file
    ~floor:("floor-monotone", fun s -> s.Store.Queue.floor)
    ~image:queue_image ops checkpoints

let run_queue ?(compact_every = 6) ?(seed = 12L) ?(torn = true) () =
  let pushes = 18 in
  let rng = Prng.Splitmix.create seed in
  let rec_ = CP.recorder (Store.Mem.create ()) in
  let q =
    Store.Queue.create ~compact_every ~disk:(CP.handle rec_) ~file:"queue-m1" ()
  in
  let checkpoints = ref [] in
  let mark () =
    checkpoints :=
      {
        boundary = List.length (CP.ops rec_);
        bytes = Store.Queue.contents q;
        state = Some (Store.Queue.state q);
      }
      :: !checkpoints
  in
  mark ();
  (* Pushes spread over epochs, a mid-stream cumulative ack, one policy
     drop, more pushes (forcing compactions past the ack floor), a
     final ack. *)
  let payload i =
    Printf.sprintf "payload-%d-%d" i (Prng.Splitmix.next_int rng 1000)
  in
  for i = 1 to pushes do
    let e = Store.Queue.push q ~epoch:(i / 4) (payload i) in
    mark ();
    if i = pushes / 3 then begin
      Store.Queue.ack q ~upto:(e.Store.Queue.seq - 1);
      mark ()
    end;
    if i = pushes / 2 then begin
      Store.Queue.drop q ~seq:e.Store.Queue.seq;
      mark ()
    end
  done;
  Store.Queue.ack q ~upto:(Store.Queue.next_seq q - 2);
  mark ();
  check_queue ~torn ~file:(Store.Queue.file q) (CP.ops rec_)
    (List.rev !checkpoints)

(* The queue matrix composed with the resource-fault layer: the
   workload crosses an ENOSPC window mid-stream. The fault wrapper sits
   between the delivery layer and the recorder, so refused writes never
   reach the op log — the enumerated images are exactly the states the
   disk could be left in, including the stale-but-valid image the
   disarmed mirror preserves through the degraded window and the re-arm
   snapshot that replaces it. *)
let run_degraded ?(compact_every = 64) ?(seed = 13L) ?(torn = true) () =
  let pushes = 20 in
  let rng = Prng.Splitmix.create seed in
  let rec_ = CP.recorder (Store.Mem.create ()) in
  let fault =
    Store.Fault.create ~rng:(Prng.Splitmix.split rng) (CP.handle rec_)
  in
  let member = "m1" in
  let file = Delivery.file_of_member member in
  let d =
    Delivery.create
      ~budgets:{ Delivery.per_member_bytes = Some 220; global_bytes = None }
      ~compact_every ~disk:(Store.Fault.handle fault) ()
  in
  let gk i = Wire.Admin.New_group_key { key = key_of rng; epoch = i } in
  (* Checkpoints only where the mirror is armed and clean: inside the
     degraded window the durable image lags memory by design. *)
  let checkpoints = ref [] in
  let mark () =
    if not (Delivery.dirty d) then
      checkpoints :=
        {
          boundary = List.length (CP.ops rec_);
          bytes =
            Option.value ~default:"" (List.assoc_opt file (Delivery.files d));
          state = None;
        }
        :: !checkpoints
  in
  mark ();
  let squeeze_at = pushes / 3 and release_at = 2 * pushes / 3 in
  for i = 1 to pushes do
    if i = squeeze_at then
      Store.Fault.set_space_budget fault
        (Some (Store.Fault.bytes_used fault + 30));
    if i = release_at then begin
      Store.Fault.set_space_budget fault None;
      ignore (Delivery.flush d)
    end;
    Delivery.enqueue d ~member ~epoch:(i / 4) (gk (i / 4));
    mark ()
  done;
  Store.Fault.set_space_budget fault None;
  let flushed = Delivery.flush d in
  mark ();
  let ops = CP.ops rec_ in
  let report = check_queue ~torn ~file ops (List.rev !checkpoints) in
  let final invariant detail = { image = "final"; invariant; detail } in
  (* No shed-seq resurrection: the final durable image replays to
     exactly the live post-flush state, whose pending set excludes
     every shed record. *)
  let st_of files =
    Store.Queue.state_of_records
      (fst
         (Store.Queue.replay
            (Option.value ~default:"" (List.assoc_opt file files))))
  in
  let pre =
    (if flushed then []
     else [ final "rearm" "flush failed with the budget released" ])
    @
    if (Delivery.counters d).Delivery.records_shed > 0 then []
    else
      [ final "workload" "the ENOSPC window shed nothing — matrix is vacuous" ]
  in
  let post =
    if st_of (CP.durable_at ops (List.length ops)) <> st_of (Delivery.files d)
    then
      [
        final "no-resurrection"
          "final durable image does not replay to the post-flush live state";
      ]
    else []
  in
  { report with violations = pre @ report.violations @ post }
