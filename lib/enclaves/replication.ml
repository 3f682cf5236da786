(* Warm-standby journal replication.

   The primary manager subscribes to its journal's mutation hook and
   ships every durable change — appended record chunks and full-image
   publishes — to each backup as a sealed [Repl_record] frame tagged
   with the primary's term (incarnation counter) and a per-term
   sequence number. Backups apply strictly in order, persist the
   replica through their own store backend, acknowledge cumulatively,
   and request re-sends when they detect a gap. Every term opens with
   a full-image snapshot at sequence 0, so a newly promoted primary
   (term + 1) resynchronises every surviving backup with one frame.

   Trust argument: frames are sealed under the shared manager key
   [K_r] with the frame header (label, sender, recipient) bound as
   AEAD associated data, so a frame shipped to backup B1 cannot be
   spliced to B2 and the apparent sender cannot be rewritten. Replays
   are inert: a duplicated in-order frame re-acknowledges, an
   out-of-window sequence or stale term is counted and dropped, and
   nothing an attacker can replay moves the replica backwards. Only
   frames that advance the replica (or prove a future frontier) count
   as primary liveness, so replayed heartbeats cannot indefinitely
   suppress a backup's promotion watchdog. *)

module F = Wire.Frame
module P = Wire.Payload

(* A [Repl_queue] op's data carries its own file binding: the queue
   file name, a NUL byte, then the full durable image. *)
let queue_data ~file image = file ^ "\000" ^ image

let split_queue_data data =
  match String.index_opt data '\000' with
  | None -> None
  | Some i ->
      Some
        (String.sub data 0 i, String.sub data (i + 1) (String.length data - i - 1))

type counters = {
  mutable records_shipped : int;
  mutable records_acked : int;
  mutable snapshots_shipped : int;
  mutable heartbeats_shipped : int;
  mutable gap_fetches : int;
  mutable rejected_forged : int;
  mutable rejected_replayed : int;
  mutable rejected_stale : int;
  mutable stale_notices : int;
  mutable stale_sourcing_stopped : int;
  mutable demotions : int;
  mutable warm_promotions : int;
  mutable cold_promotions : int;
}

let fresh_counters () =
  {
    records_shipped = 0;
    records_acked = 0;
    snapshots_shipped = 0;
    heartbeats_shipped = 0;
    gap_fetches = 0;
    rejected_forged = 0;
    rejected_replayed = 0;
    rejected_stale = 0;
    stale_notices = 0;
    stale_sourcing_stopped = 0;
    demotions = 0;
    warm_promotions = 0;
    cold_promotions = 0;
  }

(* A frozen copy for reports; the live record keeps counting. *)
let copy_counters c = { c with records_shipped = c.records_shipped }

let named c =
  [
    ("records_shipped", c.records_shipped);
    ("records_acked", c.records_acked);
    ("snapshots_shipped", c.snapshots_shipped);
    ("heartbeats_shipped", c.heartbeats_shipped);
    ("gap_fetches", c.gap_fetches);
    ("rejected_forged", c.rejected_forged);
    ("rejected_replayed", c.rejected_replayed);
    ("rejected_stale", c.rejected_stale);
    ("stale_notices", c.stale_notices);
    ("stale_sourcing_stopped", c.stale_sourcing_stopped);
    ("demotions", c.demotions);
    ("warm_promotions", c.warm_promotions);
    ("cold_promotions", c.cold_promotions);
  ]

module Source = struct
  type t = {
    self : Types.agent;
    backups : Types.agent list;
    term : int;
    key : Sym_crypto.Key.t;
    rng : Prng.Splitmix.t;
    send : F.t -> unit;
    journal : Journal.t;
    counters : counters;
    (* Per-term sequence space. [image_seq] is the sequence number of
       the most recent full-image publish; [ops] holds the typed ops
       after it (journal append chunks and delivery-queue images).
       Journal auto-compaction periodically replaces the image, which
       empties [ops]; the latest queue image per file is then re-shipped
       as a fresh op so the resend window stays complete — that is the
       op log's bound. *)
    mutable next_seq : int;
    mutable image_seq : int;
    mutable last_image : string;
    ops : (int, P.repl_op * string) Hashtbl.t;
    (* Latest durable image per delivery-queue file, so compaction of
       the op log never forgets an offline member's backlog. *)
    queue_images : (string, string) Hashtbl.t;
    (* Latest sentinel suspicion snapshot; like queue images it lives
       outside the journal byte stream and is re-shipped after
       compaction so the resend window stays complete. *)
    mutable suspicion : string option;
    acked : (Types.agent, int) Hashtbl.t;
    (* Journal byte length right after each op shipped since [image_seq]
       — what lets a demoting source cut its journal back to the acked
       prefix, which never lands below the image. *)
    lens : (int, int) Hashtbl.t;
    mutable cur_len : int;
    mutable superseded : bool;
    on_superseded : term:int -> primary:Types.agent -> unit;
  }

  let seal t ~recipient ~label payload =
    Sealed_channel.seal ~rng:t.rng ~key:t.key ~label ~sender:t.self ~recipient
      payload

  let record_frame t ~recipient ~seq ~op ~data =
    seal t ~recipient ~label:F.Repl_record
      (P.encode_repl_record
         { P.l = t.self; b = recipient; term = t.term; seq; op; data })

  let bump_ship_counter t = function
    | P.Repl_snapshot ->
        t.counters.snapshots_shipped <- t.counters.snapshots_shipped + 1
    | P.Repl_heartbeat ->
        t.counters.heartbeats_shipped <- t.counters.heartbeats_shipped + 1
    | P.Repl_append | P.Repl_queue | P.Repl_suspicion ->
        t.counters.records_shipped <- t.counters.records_shipped + 1

  let ship t ~seq ~op ~data =
    List.iter
      (fun b ->
        bump_ship_counter t op;
        t.send (record_frame t ~recipient:b ~seq ~op ~data))
      t.backups

  let ship_queue_image t ~file image =
    Hashtbl.replace t.queue_images file image;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let data = queue_data ~file image in
    Hashtbl.replace t.ops seq (P.Repl_queue, data);
    (* Queue images live outside the journal byte stream, so the
       acked-prefix walk sees an unchanged journal length here. *)
    Hashtbl.replace t.lens seq t.cur_len;
    ship t ~seq ~op:P.Repl_queue ~data

  let ship_suspicion t blob =
    t.suspicion <- Some blob;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Hashtbl.replace t.ops seq (P.Repl_suspicion, blob);
    (* Like queue images, suspicion lives outside the journal byte
       stream: the acked-prefix walk sees an unchanged length. *)
    Hashtbl.replace t.lens seq t.cur_len;
    ship t ~seq ~op:P.Repl_suspicion ~data:blob

  (* Journal compaction just emptied [ops]; put the latest image of
     every delivery queue (and the suspicion snapshot) back on the
     stream so a later [resend] can still serve them. *)
  let reship_queue_images t =
    Hashtbl.fold (fun file image acc -> (file, image) :: acc) t.queue_images []
    |> List.sort compare
    |> List.iter (fun (file, image) -> ship_queue_image t ~file image);
    match t.suspicion with None -> () | Some blob -> ship_suspicion t blob

  let on_journal_event t = function
    | Journal.Appended chunk ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        Hashtbl.replace t.ops seq (P.Repl_append, chunk);
        t.cur_len <- t.cur_len + String.length chunk;
        Hashtbl.replace t.lens seq t.cur_len;
        ship t ~seq ~op:P.Repl_append ~data:chunk
    | Journal.Published image ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        t.image_seq <- seq;
        t.last_image <- image;
        Hashtbl.reset t.ops;
        Hashtbl.reset t.lens;
        t.cur_len <- String.length image;
        Hashtbl.replace t.lens seq t.cur_len;
        ship t ~seq ~op:P.Repl_snapshot ~data:image;
        reship_queue_images t

  let create ~self ~backups ~term ~key ~rng ~send ~journal
      ?(on_superseded = fun ~term:_ ~primary:_ -> ()) ?counters () =
    let counters = match counters with Some c -> c | None -> fresh_counters () in
    let t =
      {
        self;
        backups;
        term;
        key;
        rng;
        send;
        journal;
        counters;
        next_seq = 0;
        image_seq = 0;
        last_image = "";
        ops = Hashtbl.create 64;
        queue_images = Hashtbl.create 8;
        suspicion = None;
        acked = Hashtbl.create 8;
        lens = Hashtbl.create 64;
        cur_len = 0;
        superseded = false;
        on_superseded;
      }
    in
    Journal.set_observer journal (Some (on_journal_event t));
    (* Every term opens with the primary's current image at sequence 0:
       backups that just adopted the term resynchronise from one frame. *)
    on_journal_event t (Journal.Published (Journal.contents journal));
    t

  let detach t = Journal.set_observer t.journal None
  let term t = t.term

  let heartbeat t =
    List.iter
      (fun b ->
        t.counters.heartbeats_shipped <- t.counters.heartbeats_shipped + 1;
        t.send
          (record_frame t ~recipient:b ~seq:t.next_seq ~op:P.Repl_heartbeat
             ~data:""))
      t.backups

  let acked t backup = Option.value ~default:0 (Hashtbl.find_opt t.acked backup)

  let lag t =
    List.map (fun b -> (b, max 0 (t.next_seq - acked t b))) t.backups

  (* The longest journal byte-prefix some backup acknowledged under
     this term — what a demoting source keeps when it discards its
     divergent suffix. When the best ack predates the last compaction,
     the acked records survive only inside the folded image, so the
     cut lands at the image boundary (never below an acked record). *)
  let acked_prefix t =
    let best = Hashtbl.fold (fun _ upto acc -> max upto acc) t.acked 0 in
    if best = 0 then 0
    else
      let seq = max (best - 1) t.image_seq in
      Option.value ~default:0 (Hashtbl.find_opt t.lens seq)

  let superseded t = t.superseded

  let supersede t ~term ~primary =
    if not t.superseded then begin
      t.superseded <- true;
      t.counters.stale_sourcing_stopped <-
        t.counters.stale_sourcing_stopped + 1;
      t.on_superseded ~term ~primary
    end

  let stale_notice t ~to_ ~stale_term =
    t.counters.stale_notices <- t.counters.stale_notices + 1;
    seal t ~recipient:to_ ~label:F.Repl_stale
      (P.encode_repl_stale
         { P.b = t.self; l = to_; stale_term; term = t.term; primary = t.self })

  (* Re-send everything from [from_] on, to the requesting backup only.
     Below the image floor the ops are gone — compaction subsumed them
     — so the catch-up starts with the image itself, which is
     equivalent by construction. *)
  let resend t ~backup ~from_ =
    let start =
      if from_ <= t.image_seq then begin
        t.counters.snapshots_shipped <- t.counters.snapshots_shipped + 1;
        t.send
          (record_frame t ~recipient:backup ~seq:t.image_seq
             ~op:P.Repl_snapshot ~data:t.last_image);
        t.image_seq + 1
      end
      else from_
    in
    for seq = start to t.next_seq - 1 do
      match Hashtbl.find_opt t.ops seq with
      | Some (op, data) ->
          bump_ship_counter t op;
          t.send (record_frame t ~recipient:backup ~seq ~op ~data)
      | None -> ()
    done

  let forged t = t.counters.rejected_forged <- t.counters.rejected_forged + 1

  let handle_frame t (frame : F.t) =
    match Sealed_channel.open_ ~key:t.key frame with
    | Error _ -> t.counters.rejected_forged <- t.counters.rejected_forged + 1
    | Ok plain -> (
        match frame.F.label with
        | F.Repl_stale -> (
            (* A demotion signal. Only a holder of [K_r] can have
               minted it, and acting on it requires that it answers
               {e this} incarnation: [stale_term] must equal our
               current term, and the superseding term must be strictly
               newer. A forged notice fails the seal; a replayed one
               (from an earlier demotion, or bounced off another
               manager) fails the term binding. Either way a live
               primary never stands down on fabricated evidence. *)
            match P.decode_repl_stale plain with
            | Error _ -> forged t
            | Ok n ->
                if n.P.l <> t.self || n.P.b <> frame.F.sender then forged t
                else if n.P.stale_term <> t.term || n.P.term <= n.P.stale_term
                then
                  t.counters.rejected_replayed <-
                    t.counters.rejected_replayed + 1
                else supersede t ~term:n.P.term ~primary:n.P.primary)
        | F.Repl_ack -> (
            match P.decode_repl_ack plain with
            | Error _ ->
                t.counters.rejected_forged <- t.counters.rejected_forged + 1
            | Ok a ->
                if a.P.b <> frame.F.sender || a.P.l <> t.self then
                  t.counters.rejected_forged <- t.counters.rejected_forged + 1
                else if a.P.term <> t.term then
                  t.counters.rejected_stale <- t.counters.rejected_stale + 1
                else begin
                  t.counters.records_acked <- t.counters.records_acked + 1;
                  if a.P.upto > acked t a.P.b then
                    Hashtbl.replace t.acked a.P.b a.P.upto
                end)
        | F.Repl_fetch -> (
            match P.decode_repl_fetch plain with
            | Error _ ->
                t.counters.rejected_forged <- t.counters.rejected_forged + 1
            | Ok f ->
                if f.P.b <> frame.F.sender || f.P.l <> t.self then
                  t.counters.rejected_forged <- t.counters.rejected_forged + 1
                else if f.P.term <> t.term then
                  t.counters.rejected_stale <- t.counters.rejected_stale + 1
                else resend t ~backup:f.P.b ~from_:f.P.from_)
        | _ -> t.counters.rejected_forged <- t.counters.rejected_forged + 1)

  (* A [Repl_record] arriving at a manager that is itself sourcing:
     either a zombie peer still shipping a dead term (tell it to stand
     down), or a successor's higher-term stream reaching us after a
     partition healed (the authentic evidence that {e we} are the
     zombie). An equal term from a different source is impossible for
     honest managers — promotion terms are unique — so it is treated
     as a forgery attempt. *)
  let handle_peer_record t (frame : F.t) =
    match Sealed_channel.open_ ~key:t.key frame with
    | Error _ -> forged t
    | Ok plain -> (
        match P.decode_repl_record plain with
        | Error _ -> forged t
        | Ok r ->
            if r.P.b <> t.self || r.P.l <> frame.F.sender then forged t
            else if r.P.term > t.term then
              supersede t ~term:r.P.term ~primary:r.P.l
            else if r.P.term < t.term then begin
              t.counters.rejected_stale <- t.counters.rejected_stale + 1;
              t.send (stale_notice t ~to_:r.P.l ~stale_term:r.P.term)
            end
            else forged t)

  let stats t = copy_counters t.counters
end

module Replica = struct
  type t = {
    self : Types.agent;
    key : Sym_crypto.Key.t;
    rng : Prng.Splitmix.t;
    disk : Store.Backend.t option;
    counters : counters;
    buf : Buffer.t;
    (* Latest delivery-queue image per file, mirrored from the primary
       so a promotion can rebuild the store-and-forward layer. *)
    queues : (string, string) Hashtbl.t;
    (* Latest suspicion snapshot from the primary, adopted by the
       sentinel at promotion so quarantines survive failover. Not
       persisted: the source re-ships it on every escalation and after
       every compaction, so a restarted replica reconverges. *)
    mutable suspicion : string option;
    mutable primary : Types.agent;
    mutable term : int;
    mutable expected : int;
    mutable fresh_activity : bool;
    (* The promotion watchdog: the primary's silence so far, counted in
       watchdog periods, and whether a demoted manager still awaits the
       live term's first snapshot. *)
    mutable quiet : Netsim.Vtime.t;
    mutable catching_up : bool;
  }

  let file = "journal_replica"

  let create ~self ~primary ~key ~rng ?disk ?(term = 0) ?(catching_up = false)
      ?counters () =
    let counters = match counters with Some c -> c | None -> fresh_counters () in
    {
      self;
      key;
      rng;
      disk;
      counters;
      buf = Buffer.create 256;
      queues = Hashtbl.create 8;
      suspicion = None;
      primary;
      term;
      expected = 0;
      fresh_activity = false;
      quiet = Netsim.Vtime.zero;
      catching_up;
    }

  let contents t = Buffer.contents t.buf
  let term t = t.term
  let expected t = t.expected
  let quiet t = t.quiet
  let catching_up t = t.catching_up

  let take_activity t =
    let a = t.fresh_activity in
    t.fresh_activity <- false;
    a

  (* A liveness-proving frame since the last period restarts the
     silence count, and ends a demoted replica's catch-up once the live
     term's first snapshot has landed — promoting an empty replica
     would cold-restart the very group it just rejoined. *)
  let tick t ~period ~after =
    if take_activity t then begin
      t.quiet <- Netsim.Vtime.zero;
      if t.expected > 0 then t.catching_up <- false;
      false
    end
    else begin
      t.quiet <- Int64.add t.quiet period;
      (not t.catching_up) && Netsim.Vtime.(after <= t.quiet)
    end

  let seal_to t ~recipient ~label payload =
    Sealed_channel.seal ~rng:t.rng ~key:t.key ~label ~sender:t.self ~recipient
      payload

  let seal t ~label payload = seal_to t ~recipient:t.primary ~label payload

  let stale_notice t ~to_ ~stale_term =
    t.counters.stale_notices <- t.counters.stale_notices + 1;
    seal_to t ~recipient:to_ ~label:F.Repl_stale
      (P.encode_repl_stale
         {
           P.b = t.self;
           l = to_;
           stale_term;
           term = t.term;
           primary = t.primary;
         })

  let ack t =
    seal t ~label:F.Repl_ack
      (P.encode_repl_ack
         { P.b = t.self; l = t.primary; term = t.term; upto = t.expected })

  let fetch t =
    t.counters.gap_fetches <- t.counters.gap_fetches + 1;
    seal t ~label:F.Repl_fetch
      (P.encode_repl_fetch
         { P.b = t.self; l = t.primary; term = t.term; from_ = t.expected })

  let apply_append t data =
    let off = Buffer.length t.buf in
    Buffer.add_string t.buf data;
    Option.iter (fun d -> Store.Backend.write_synced d ~file ~off data) t.disk

  let apply_image t data =
    Buffer.clear t.buf;
    Buffer.add_string t.buf data;
    Option.iter (fun d -> Store.Backend.publish d ~file data) t.disk

  let apply_queue t ~file image =
    Hashtbl.replace t.queues file image;
    Option.iter (fun d -> Store.Backend.publish d ~file image) t.disk

  let queue_images t =
    Hashtbl.fold (fun file image acc -> (file, image) :: acc) t.queues []
    |> List.sort compare

  let suspicion t = t.suspicion

  let forged t = t.counters.rejected_forged <- t.counters.rejected_forged + 1

  let handle_frame t (frame : F.t) =
    match Sealed_channel.open_ ~key:t.key frame with
    | Error _ ->
        forged t;
        []
    | Ok plain -> (
        match P.decode_repl_record plain with
        | Error _ ->
            forged t;
            []
        | Ok r ->
            if r.P.b <> t.self || r.P.l <> frame.F.sender then begin
              forged t;
              []
            end
            else if r.P.term < t.term then begin
              (* A superseded source is still shipping. Beyond dropping
                 the record, answer with the demotion signal: the
                 zombie holds [K_r], so it will verify the notice and
                 stand down (post-heal reconciliation). *)
              t.counters.rejected_stale <- t.counters.rejected_stale + 1;
              [ stale_notice t ~to_:r.P.l ~stale_term:r.P.term ]
            end
            else if r.P.term = t.term && t.expected > 0 && r.P.l <> t.primary
            then begin
              (* Two distinct primaries claiming one term: impossible for
                 honest managers (terms are claimed by succession order),
                 so this is a forgery attempt that somehow holds the key.
                 Drop it rather than fork the replica. *)
              forged t;
              []
            end
            else begin
              if r.P.term > t.term then begin
                (* A successor took over. Adopt its term; its stream
                   opens with a snapshot at sequence 0, which lands in
                   the in-order path below. *)
                t.term <- r.P.term;
                t.primary <- r.P.l;
                t.expected <- 0
              end
              else if t.expected = 0 then t.primary <- r.P.l;
              match r.P.op with
              | P.Repl_heartbeat ->
                  if r.P.seq > t.expected then begin
                    t.fresh_activity <- true;
                    [ fetch t ]
                  end
                  else if r.P.seq = t.expected then begin
                    t.fresh_activity <- true;
                    [ ack t ]
                  end
                  else begin
                    (* Old frontier: a replayed heartbeat. Not counted as
                       liveness — replays must not starve the promotion
                       watchdog. *)
                    t.counters.rejected_replayed <-
                      t.counters.rejected_replayed + 1;
                    []
                  end
              | P.Repl_append ->
                  if r.P.seq = t.expected then begin
                    apply_append t r.P.data;
                    t.expected <- t.expected + 1;
                    t.fresh_activity <- true;
                    [ ack t ]
                  end
                  else if r.P.seq < t.expected then begin
                    t.counters.rejected_replayed <-
                      t.counters.rejected_replayed + 1;
                    [ ack t ]
                  end
                  else begin
                    t.fresh_activity <- true;
                    [ fetch t ]
                  end
              | P.Repl_queue ->
                  if r.P.seq = t.expected then begin
                    (match split_queue_data r.P.data with
                    | Some (file, image) -> apply_queue t ~file image
                    | None ->
                        (* Malformed queue binding from a key holder:
                           apply nothing, but stay in sequence so the
                           stream is not wedged. *)
                        forged t);
                    t.expected <- t.expected + 1;
                    t.fresh_activity <- true;
                    [ ack t ]
                  end
                  else if r.P.seq < t.expected then begin
                    t.counters.rejected_replayed <-
                      t.counters.rejected_replayed + 1;
                    [ ack t ]
                  end
                  else begin
                    t.fresh_activity <- true;
                    [ fetch t ]
                  end
              | P.Repl_suspicion ->
                  if r.P.seq = t.expected then begin
                    t.suspicion <- Some r.P.data;
                    t.expected <- t.expected + 1;
                    t.fresh_activity <- true;
                    [ ack t ]
                  end
                  else if r.P.seq < t.expected then begin
                    t.counters.rejected_replayed <-
                      t.counters.rejected_replayed + 1;
                    [ ack t ]
                  end
                  else begin
                    t.fresh_activity <- true;
                    [ fetch t ]
                  end
              | P.Repl_snapshot ->
                  if r.P.seq >= t.expected then begin
                    (* A snapshot subsumes everything before it, so a
                       future-sequence image is itself the catch-up. *)
                    apply_image t r.P.data;
                    t.expected <- r.P.seq + 1;
                    t.fresh_activity <- true;
                    [ ack t ]
                  end
                  else begin
                    t.counters.rejected_replayed <-
                      t.counters.rejected_replayed + 1;
                    [ ack t ]
                  end
            end)

  let stats t = copy_counters t.counters
end
