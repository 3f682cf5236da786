(* A bounded model of the RECOVERY PLANE: the journal-replication
   channel between the old primary L, its successor S, and one member
   A, under a Dolev-Yao intruder E who owns the wire. The member-plane
   protocol (handshakes, admin traffic, Oops of expired session keys)
   is verified separately in {!Model}; this model abstracts it to "A
   follows the live source's epoch" and asks the three questions the
   demotion/reconciliation design must answer:

   - can a fabricated or replayed journal/replica frame RESURRECT a
     session that was closed durably?
   - can the recovery path ever REGRESS the member's group-key epoch
     (e.g. a successor promoting from a replica prefix that lost the
     last Epoch_bump)?
   - can a fabricated or replayed [Repl_stale] signal DEMOTE a live
     primary that was never actually superseded?

   Modelling choices, stated explicitly:

   - E can deliver, replay, reorder or withhold any frame ever put on
     the wire, and can synthesize frames under any key EXCEPT the
     shared manager key [K_r] — managers are inside the paper's trust
     boundary, so [K_r] is never oopsed. Synthesized frames carry
     [kr = false]; the receiving automata check exactly what the
     implementation checks (seal key, term binding, sequence window).
   - session close is modelled as durable AT THE RECOVERY PLANE: the
     close record reaches the replica atomically with the close. An
     asynchronously lost close is a fail-stop durability loss, not an
     intruder capability — what we verify here is that no INTRUDER
     action loses one.
   - the epoch vault is shared durable state (each manager persists
     its own copy and beacons the max; the model folds them into one
     monotone cell).

   The state space is tiny (a few thousand states) and explored
   exhaustively; obligations are reported as {!Explore.report}
   values so the CLI's verify command can print and gate on them
   uniformly. *)

type bounds = { max_epoch : int; max_minted : int }

let default_bounds = { max_epoch = 3; max_minted = 3 }

type jrec = R_est | R_epoch of int | R_close

type role = Sourcing of int | Backup of int

type frame =
  | Fr_record of { kr : bool; term : int; seq : int }
      (* a journal-stream frame; [kr] = sealed under the manager key *)
  | Fr_stale of { kr : bool; stale_term : int; term : int }
      (* "term [stale_term] is dead; [term] is live" *)

type target = At_L | At_S

type state = {
  l_role : role;
  s_role : role;
  journal : jrec list;  (* L's journal while sourcing (newest last) *)
  s_replica : int;  (* prefix of [journal] S has applied and acked *)
  s_journal : jrec list;  (* S's own journal once promoted *)
  l_sess : bool;  (* L believes A's session live *)
  s_sess : bool;
  a_epoch : int;  (* the member's current group-key epoch *)
  a_closed : bool;  (* A's session was closed, durably *)
  l_epoch : int;
  s_epoch : int;  (* S's epoch belief once promoted *)
  vault : int;  (* durable epoch floor *)
  minted : int;  (* highest term legitimately minted so far *)
  partitioned : bool;
  wire : frame list;  (* authentic frames E has observed (sorted) *)
  forged_rejected : bool;  (* a bad-key frame was rejected somewhere *)
  replayed_rejected : bool;  (* a bad-binding frame was rejected *)
}

let initial =
  {
    l_role = Sourcing 1;
    s_role = Backup 1;
    journal = [];
    s_replica = 0;
    s_journal = [];
    l_sess = false;
    s_sess = false;
    a_epoch = 0;
    a_closed = false;
    l_epoch = 1;
    s_epoch = 0;
    vault = 1;
    minted = 1;
    partitioned = false;
    wire = [];
    forged_rejected = false;
    replayed_rejected = false;
  }

(* [No_sharing], so that the bytes depend on the value alone and not
   on which of its parts happen to be physically shared. *)
let canon q = Marshal.to_string q [ Marshal.No_sharing ]

let record_frame q f =
  if List.mem f q.wire then q
  else { q with wire = List.sort compare (f :: q.wire) }

type move =
  | M_establish
  | M_bump  (* the live source bumps the epoch *)
  | M_replicate  (* one journal record reaches S's replica *)
  | M_close  (* the live source closes A's session, durably *)
  | M_partition
  | M_promote  (* S's watchdog fires; warm promotion from the replica *)
  | M_adopt  (* A follows the promoted source's epoch *)
  | M_heal  (* partition heals; S's authentic evidence hits the wire *)
  | M_deliver_stale of frame * target
  | M_deliver_record of frame * target
  | M_synth_stale of frame * target  (* E-built, kr = false *)
  | M_synth_record of frame * target

let pp_target fmt = function
  | At_L -> Format.pp_print_string fmt "L"
  | At_S -> Format.pp_print_string fmt "S"

let pp_frame fmt = function
  | Fr_record { kr; term; seq } ->
      Format.fprintf fmt "record(kr=%b,term=%d,seq=%d)" kr term seq
  | Fr_stale { kr; stale_term; term } ->
      Format.fprintf fmt "stale(kr=%b,dead=%d,live=%d)" kr stale_term term

let pp_move fmt = function
  | M_establish -> Format.pp_print_string fmt "L:establish-A"
  | M_bump -> Format.pp_print_string fmt "source:epoch-bump"
  | M_replicate -> Format.pp_print_string fmt "S:replicate-one"
  | M_close -> Format.pp_print_string fmt "source:close-A"
  | M_partition -> Format.pp_print_string fmt "net:partition-L"
  | M_promote -> Format.pp_print_string fmt "S:promote"
  | M_adopt -> Format.pp_print_string fmt "A:adopt-epoch"
  | M_heal -> Format.pp_print_string fmt "net:heal"
  | M_deliver_stale (f, t) ->
      Format.fprintf fmt "E:deliver-%a@%a" pp_frame f pp_target t
  | M_deliver_record (f, t) ->
      Format.fprintf fmt "E:deliver-%a@%a" pp_frame f pp_target t
  | M_synth_stale (f, t) ->
      Format.fprintf fmt "E:forge-%a@%a" pp_frame f pp_target t
  | M_synth_record (f, t) ->
      Format.fprintf fmt "E:forge-%a@%a" pp_frame f pp_target t

let role_of q = function At_L -> q.l_role | At_S -> q.s_role

let prefix_epoch recs =
  List.fold_left
    (fun acc r -> match r with R_epoch e -> max acc e | _ -> acc)
    1 recs

let take n l = List.filteri (fun i _ -> i < n) l

(* Demote [target], currently [Sourcing _], to a catching-up backup at
   the superseding term. L's journal is cut back to the prefix S acked
   under the common term — exactly {!Replication.Source.acked_prefix};
   its unwitnessed suffix is discarded with the role. *)
let demote q target ~term =
  match target with
  | At_L ->
      {
        q with
        l_role = Backup term;
        l_sess = false;
        journal = take q.s_replica q.journal;
      }
  | At_S -> { q with s_role = Backup term; s_sess = false; s_journal = [] }

(* The stale-signal receiver — the same checks as
   {!Replication.Source.handle_frame}: seal under K_r, [stale_term]
   must equal the receiver's CURRENT term, the superseding term must be
   strictly greater. A backup has nothing to demote: dropped. *)
let recv_stale q target f =
  match (f, role_of q target) with
  | Fr_stale _, Backup _ -> None
  | Fr_stale { kr = false; _ }, Sourcing _ ->
      Some { q with forged_rejected = true }
  | Fr_stale { kr = true; stale_term; term }, Sourcing t ->
      if stale_term <> t || term <= stale_term then
        Some { q with replayed_rejected = true }
      else Some (demote q target ~term)
  | Fr_record _, _ -> None

(* A journal-stream frame arriving at a manager:
   - at a SOURCING manager this is {!Replication.Source.handle_peer_record}:
     a strictly higher authentic term demotes us, a lower one is the
     zombie's dead stream (counted; in the implementation it draws a
     stale notice back), an equal one is impossible honestly = forged;
   - at a BACKUP, E can only replay frames recorded before the replica
     advanced past them, so every delivery is out-of-window. *)
let recv_record q target f =
  match (f, role_of q target) with
  | Fr_record { kr = false; _ }, _ -> Some { q with forged_rejected = true }
  | Fr_record { kr = true; term; _ }, Sourcing t ->
      if term > t then Some (demote q target ~term)
      else Some { q with replayed_rejected = true }
  | Fr_record { kr = true; _ }, Backup _ ->
      Some { q with replayed_rejected = true }
  | Fr_stale _, _ -> None

let successors bounds q =
  let moves = ref [] in
  let add m s = moves := (m, s) :: !moves in

  (* One session per run (rejoin is the member-plane model's
     business): L establishes A while sourcing an empty journal. *)
  (match q.l_role with
  | Sourcing _ when (not q.l_sess) && (not q.a_closed) && q.journal = [] ->
      add M_establish
        { q with l_sess = true; a_epoch = q.l_epoch; journal = [ R_est ] }
  | _ -> ());

  (* The sourcing manager bumps the group epoch. The member follows
     only while L is the GENUINE source (S still a backup): once S has
     promoted, A follows S and the zombie's bumps land in the
     divergent suffix that demotion will discard. The vault (S's
     durable epoch floor) learns epochs through replication, below —
     not here. *)
  (match (q.l_role, q.s_role) with
  | Sourcing _, s
    when q.l_sess && (not q.partitioned) && q.l_epoch < bounds.max_epoch ->
      let e = q.l_epoch + 1 in
      let genuine = match s with Backup _ -> true | Sourcing _ -> false in
      add M_bump
        {
          q with
          l_epoch = e;
          (* the member-plane guard: NewKey with a non-increasing
             epoch is rejected (the paper's A3/W3 fix) *)
          a_epoch = (if genuine && e > q.a_epoch then e else q.a_epoch);
          journal = q.journal @ [ R_epoch e ];
        }
  | _ -> ());
  (match q.s_role with
  | Sourcing _ when q.s_sess && q.s_epoch < bounds.max_epoch ->
      let e = q.s_epoch + 1 in
      add M_bump
        {
          q with
          s_epoch = e;
          vault = max q.vault e;
          (* a successor that promoted from a lagging replica re-mints
             epochs the member already passed; the member's W3 guard
             drops them until the count catches up — no regression *)
          a_epoch = (if e > q.a_epoch then e else q.a_epoch);
          s_journal = q.s_journal @ [ R_epoch e ];
        }
  | _ -> ());

  (* Replication: one more journal record reaches S's replica (and E
     records the sealed frame off the wire). Only while L sources and
     the link is up. S's vault persists every epoch it sees land. *)
  (match (q.l_role, q.s_role) with
  | Sourcing t, Backup _
    when (not q.partitioned) && q.s_replica < List.length q.journal ->
      let vault =
        match List.nth q.journal q.s_replica with
        | R_epoch e -> max q.vault e
        | R_est | R_close -> q.vault
      in
      add M_replicate
        (record_frame
           { q with s_replica = q.s_replica + 1; vault }
           (Fr_record { kr = true; term = t; seq = q.s_replica }))
  | _ -> ());

  (* Close — durable at the recovery plane (see the header) when
     issued by the genuine source. A superseded zombie's close is just
     another record in its divergent suffix: it does NOT close A's
     live session at S, and demotion will discard it. *)
  (match (q.l_role, q.s_role) with
  | Sourcing _, Backup _ when q.l_sess && not q.partitioned ->
      add M_close
        {
          q with
          l_sess = false;
          a_closed = true;
          journal = q.journal @ [ R_close ];
          s_replica = List.length q.journal + 1;
          vault = max q.vault q.l_epoch;
        }
  | Sourcing _, Sourcing _ when q.l_sess && not q.partitioned ->
      add M_close { q with l_sess = false; journal = q.journal @ [ R_close ] }
  | _ -> ());
  (match q.s_role with
  | Sourcing _ when q.s_sess ->
      add M_close
        {
          q with
          s_sess = false;
          a_closed = true;
          s_journal = q.s_journal @ [ R_close ];
        }
  | _ -> ());

  (* The partition isolates L (fail-stop silence, not Byzantium). *)
  (match q.l_role with
  | Sourcing _ when not q.partitioned ->
      add M_partition { q with partitioned = true }
  | _ -> ());

  (* S's promotion watchdog fires on silence: warm promotion from the
     replica prefix, minting the next term. The epoch belief is
     max(prefix, vault) — the vault line is exactly what the
     no-regression obligation depends on. *)
  (match q.s_role with
  | Backup _ when q.partitioned && q.minted < bounds.max_minted ->
      let term = q.minted + 1 in
      let prefix = take q.s_replica q.journal in
      let sess = List.mem R_est prefix && not (List.mem R_close prefix) in
      add M_promote
        {
          q with
          s_role = Sourcing term;
          s_journal = prefix;
          s_sess = sess;
          s_epoch = max (prefix_epoch prefix) q.vault;
          minted = term;
        }
  | _ -> ());

  (* A follows the promoted source's epoch (beacon / NewKey). The
     member-plane guard — a member rejects an epoch older than its own
     as stale — is part of the modelled behaviour; the no-regression
     obligation checks that the conjunction of this guard and the
     vault floor really leaves no regressing edge. *)
  (match q.s_role with
  | Sourcing _ when q.s_sess && q.s_epoch > q.a_epoch ->
      add M_adopt { q with a_epoch = q.s_epoch }
  | _ -> ());

  (* The heal: L is reachable again. If S promoted meanwhile, its
     authentic higher-term evidence is now in flight — both the
     demotion signal its replicas answer the zombie's stream with, and
     S's own higher-term stream frames. *)
  if q.partitioned then begin
    let healed = { q with partitioned = false } in
    match (q.l_role, q.s_role) with
    | Sourcing t, Sourcing t' ->
        add M_heal
          (record_frame
             (record_frame healed (Fr_stale { kr = true; stale_term = t; term = t' }))
             (Fr_record { kr = true; term = t'; seq = 0 }))
    | _ -> add M_heal healed
  end;

  (* E owns the wire: deliver (replay) any recorded frame anywhere
     reachable, and synthesize bad-key frames with otherwise perfect
     binding — the strongest forgery short of breaking the AEAD. *)
  let deliverable_at = function At_L -> not q.partitioned | At_S -> true in
  let try_deliver mk recv f target =
    if deliverable_at target then
      match recv q target f with
      | Some q' when q' <> q -> add (mk (f, target)) q'
      | Some _ | None -> ()
  in
  List.iter
    (fun f ->
      List.iter
        (fun target ->
          try_deliver (fun (f, tg) -> M_deliver_stale (f, tg)) recv_stale f target;
          try_deliver (fun (f, tg) -> M_deliver_record (f, tg)) recv_record f target)
        [ At_L; At_S ])
    q.wire;
  List.iter
    (fun target ->
      match role_of q target with
      | Sourcing t ->
          try_deliver
            (fun (f, tg) -> M_synth_stale (f, tg))
            recv_stale
            (Fr_stale { kr = false; stale_term = t; term = t + 1 })
            target;
          try_deliver
            (fun (f, tg) -> M_synth_record (f, tg))
            recv_record
            (Fr_record { kr = false; term = t + 1; seq = 0 })
            target
      | Backup _ ->
          try_deliver
            (fun (f, tg) -> M_synth_record (f, tg))
            recv_record
            (Fr_record { kr = false; term = q.minted; seq = q.s_replica })
            target)
    [ At_L; At_S ];

  !moves

(* --- exploration: an {!Explore.Make} instance, uncapped so that no
   report can hold over a silently truncated graph --- *)

module E = Explore.Make (struct
  type config = bounds
  type nonrec state = state
  type nonrec move = move

  let default_config = default_bounds
  let initial = initial
  let successors = successors
  let canon = canon
end)

type result = E.result

let explore ?bounds () = E.run ?config:bounds ~max_states:max_int ()
let state_count = E.state_count
let edge_count = E.edge_count

let pp_role fmt = function
  | Sourcing t -> Format.fprintf fmt "Sourcing(%d)" t
  | Backup t -> Format.fprintf fmt "Backup(%d)" t

let step move q =
  Format.asprintf
    "%a => L=%a S=%a sess=(%b,%b) a_epoch=%d closed=%b minted=%d part=%b"
    pp_move move pp_role q.l_role pp_role q.s_role q.l_sess q.s_sess q.a_epoch
    q.a_closed q.minted q.partitioned

(* A demotion edge (some manager drops from Sourcing to Backup by a
   frame delivery) is legitimate iff the frame is sealed under K_r,
   carries a strictly higher superseding term, and that term was
   genuinely minted by an honest promotion before the edge. *)
let demotion_justified q_src move =
  let demoted target =
    match role_of q_src target with Sourcing t -> Some t | Backup _ -> None
  in
  let frame_ok f t =
    match f with
    | Fr_stale { kr; stale_term; term } ->
        kr && stale_term = t && term > t && term <= q_src.minted
    | Fr_record { kr; term; _ } -> kr && term > t && term <= q_src.minted
  in
  match move with
  | M_deliver_stale (f, target) | M_deliver_record (f, target)
  | M_synth_stale (f, target) | M_synth_record (f, target) -> (
      match demoted target with None -> true | Some t -> frame_ok f t)
  | _ -> true

(* The session is "live" only at a source at the highest minted term.
   A superseded zombie's lingering belief is split-brain residue — A
   is long gone from it, and demotion clears it at the heal — not a
   resurrection. *)
let live_sess q =
  (match q.l_role with
  | Sourcing t when t = q.minted -> q.l_sess
  | _ -> false)
  ||
  match q.s_role with Sourcing t when t = q.minted -> q.s_sess | _ -> false

let reports r =
  let no_resurrection =
    E.state_report r ~step ~name:"no closed-session resurrection" (fun q ->
        not (q.a_closed && live_sess q))
  in
  let no_regression =
    E.edge_report r ~step ~name:"member epoch never regresses"
      (fun q _move q' ->
        q'.a_epoch >= q.a_epoch)
  in
  let no_forged_demotion =
    E.edge_report r ~step ~name:"no forged/replayed demotion" (fun q move q' ->
        let dropped target =
          match (role_of q target, role_of q' target) with
          | Sourcing _, Backup _ -> true
          | _ -> false
        in
        if dropped At_L || dropped At_S then demotion_justified q move
        else true)
  in
  (* Non-vacuity: the intruder really fired forgeries and replays, and
     a genuine heal-path demotion is really reachable — the three
     obligations above are not holding over an empty attack surface. *)
  let surface =
    let exists p = E.find_state r p <> None in
    let demote_edge =
      E.find_edge r (fun q _m q' ->
          match (q.l_role, q'.l_role) with
          | Sourcing _, Backup _ -> true
          | _ -> false)
      <> None
    in
    {
      Explore.name = "attack surface exercised";
      holds =
        exists (fun q -> q.forged_rejected)
        && exists (fun q -> q.replayed_rejected)
        && exists (fun q -> q.a_closed)
        && demote_edge;
      checked = state_count r + edge_count r;
      violations = [];
    }
  in
  [ no_resurrection; no_regression; no_forged_demotion; surface ]
