open Sym_crypto
module F = Wire.Frame
module P = Wire.Payload

type policy = { rekey_on_join : bool; rekey_on_leave : bool; degrade : bool }

let default_policy =
  { rekey_on_join = true; rekey_on_leave = true; degrade = true }

(* The degraded-mode ladder: one-way down within a pressure episode,
   recovered to [Healthy] in one step by {!try_rearm} once the store
   accepts writes again. The rungs order by severity; [Shedding] (the
   byte budgets actively dropping queued records) is the lowest. *)
type mode = Healthy | Durability_degraded | Memory_only | Shedding

let mode_rank = function
  | Healthy -> 0
  | Durability_degraded -> 1
  | Memory_only -> 2
  | Shedding -> 3

let mode_name = function
  | Healthy -> "healthy"
  | Durability_degraded -> "durability-degraded"
  | Memory_only -> "memory-only"
  | Shedding -> "shedding"

type event =
  | Member_authenticated of Types.agent
  | Member_closed of { member : Types.agent; session_key : Key.t }
  | Member_expelled of { member : Types.agent; session_key : Key.t }
  | Ack_received of Types.agent
  | App_relayed of { author : Types.agent }
  | Member_recovered of Types.agent
  | Cold_restart_acked of Types.agent
  | Resync_served of Types.agent
  | Rejected of {
      label : F.label option;
      claimed : Types.agent option;
      reason : Types.reject_reason;
    }

let pp_event fmt = function
  | Member_authenticated who -> Format.fprintf fmt "MemberAuthenticated(%s)" who
  | Member_closed { member; _ } -> Format.fprintf fmt "MemberClosed(%s)" member
  | Member_expelled { member; _ } -> Format.fprintf fmt "MemberExpelled(%s)" member
  | Ack_received who -> Format.fprintf fmt "AckReceived(%s)" who
  | App_relayed { author } -> Format.fprintf fmt "AppRelayed(%s)" author
  | Member_recovered who -> Format.fprintf fmt "MemberRecovered(%s)" who
  | Cold_restart_acked who -> Format.fprintf fmt "ColdRestartAcked(%s)" who
  | Resync_served who -> Format.fprintf fmt "ResyncServed(%s)" who
  | Rejected { label; claimed; reason } ->
      Format.fprintf fmt "Rejected(%s, %s, %a)"
        (match label with Some l -> F.label_to_string l | None -> "?")
        (Option.value claimed ~default:"?")
        Types.pp_reject_reason reason

type mstate =
  | S_not_connected
  | S_waiting_for_key_ack of {
      nl : Wire.Nonce.t;
      ka : Key.t;
      init_n1 : Wire.Nonce.t;  (* the N1 this handshake answers *)
      reply : F.t;  (* stored AuthKeyDist, resent on duplicate requests *)
    }
  | S_connected of { na : Wire.Nonce.t; ka : Key.t }
  | S_waiting_for_ack of {
      nl : Wire.Nonce.t;
      ka : Key.t;
      reply : F.t;  (* the outstanding AdminMsg, re-sent on timeout *)
    }
  | S_recovering of {
      nc : Wire.Nonce.t;
      ka : Key.t;  (* journalled, not yet trusted *)
      reply : F.t;  (* the outstanding RecoveryChallenge *)
    }

type session_view =
  | Not_connected
  | Waiting_for_key_ack of Wire.Nonce.t * Key.t
  | Connected of Wire.Nonce.t * Key.t
  | Waiting_for_ack of Wire.Nonce.t * Key.t
  | Recovering of Wire.Nonce.t * Key.t

type session = {
  mutable mstate : mstate;
  mutable queue : Wire.Admin.t list;  (* pending, oldest first *)
  mutable sent_rev : Wire.Admin.t list;  (* snd_A, newest first *)
}

type counters = {
  mutable recoveries : int;
  mutable resyncs_served : int;
  mutable degraded_entries : int;
  mutable rearms : int;
  mutable keydist_retransmits : int;
  mutable admin_retransmits : int;
  mutable half_open_gcs : int;
  mutable challenge_retransmits : int;
  mutable challenges_failed : int;
  mutable beacon_retransmits : int;
  mutable digests_broadcast : int;
}

let fresh_counters () =
  {
    recoveries = 0;
    resyncs_served = 0;
    degraded_entries = 0;
    rearms = 0;
    keydist_retransmits = 0;
    admin_retransmits = 0;
    half_open_gcs = 0;
    challenge_retransmits = 0;
    challenges_failed = 0;
    beacon_retransmits = 0;
    digests_broadcast = 0;
  }

(* The tick's memory of one outstanding frame, keyed by its nonce. *)
type watch = {
  first_seen : Netsim.Vtime.t;
  mutable last_sent : Netsim.Vtime.t;
  mutable interval : Netsim.Vtime.t;
}

type t = {
  self : Types.agent;
  rng : Prng.Splitmix.t;
  directory : (Types.agent, Key.t) Hashtbl.t;
  sessions : (Types.agent, session) Hashtbl.t;
  policy : policy;
  journal : Journal.t option;
  vault : Store.Vault.t option;
  mutable group_key : Types.group_key option;
  mutable next_epoch : int;
  mutable events_rev : event list;
  counts : counters;  (* cumulative, for this incarnation *)
  watches : (Wire.Nonce.t, watch) Hashtbl.t;
  (* Cold-restart beacon state: [Some epoch] marks this incarnation as
     cold-restarted (the only incarnation that answers beacon
     challenges); [cold_nb] holds the fresh nonce each beacon carried. *)
  mutable beacon_epoch : int option;
  cold_nb : (Types.agent, Wire.Nonce.t) Hashtbl.t;
  mutable beacons : (Types.agent * Wire.Nonce.t * F.t) list;
      (* beacons still re-sent: their member has not rejoined *)
  (* Store-and-forward: members currently marked offline (evicted as
     silent or known-partitioned) have broadcast traffic journalled in
     [delivery] instead of dropped. *)
  delivery : Delivery.t option;
  offline : (Types.agent, unit) Hashtbl.t;
  (* Online intrusion containment: the sentinel scores misbehaviour
     evidence; [contained_done] records suspects already acted on so
     the sweep is idempotent. *)
  sentinel : Sentinel.t option;
  contained_done : (Types.agent, unit) Hashtbl.t;
  (* Injection path of the frame currently being dispatched, as vouched
     for by the transport ([None] outside [receive], or when the caller
     has no path information — which degrades to claimed-sender
     attribution). Every rejection scored during the dispatch
     attributes its evidence to this path. *)
  mutable rx_via : Netsim.Trace.via option;
  (* Degraded-mode ladder state: [mode] is the worst rung reached in
     the current pressure episode, [mode_notice_due] queues the sealed
     "degraded:<mode>" notice the next sweep broadcasts, [sheds_seen]
     is the delivery shed counter already accounted for. *)
  mutable mode : mode;
  mutable mode_notice_due : bool;
  mutable sheds_seen : int;
}

let create_with_keys ~self ~rng ~directory ?(policy = default_policy) ?journal
    ?vault ?delivery ?sentinel () =
  let dir = Hashtbl.create 16 in
  List.iter
    (fun (user, key) ->
      if Key.kind key <> Key.Long_term then
        invalid_arg "Leader.create_with_keys: keys must be long-term";
      Hashtbl.replace dir user key)
    directory;
  {
    self;
    rng = Prng.Splitmix.split rng;
    directory = dir;
    sessions = Hashtbl.create 16;
    policy;
    journal;
    vault;
    group_key = None;
    next_epoch = 1;
    events_rev = [];
    counts = fresh_counters ();
    watches = Hashtbl.create 8;
    beacon_epoch = None;
    cold_nb = Hashtbl.create 8;
    beacons = [];
    delivery;
    offline = Hashtbl.create 8;
    sentinel;
    contained_done = Hashtbl.create 8;
    rx_via = None;
    mode = Healthy;
    mode_notice_due = false;
    sheds_seen = 0;
  }

let create ~self ~rng ~directory ?policy ?journal ?vault ?delivery ?sentinel ()
    =
  let keyed =
    List.map
      (fun (user, password) -> (user, Key.long_term ~user ~password))
      directory
  in
  create_with_keys ~self ~rng ~directory:keyed ?policy ?journal ?vault
    ?delivery ?sentinel ()

(* --- the degraded-mode ladder --- *)

let mode t = t.mode
let counters t = t.counts

let durability_armed t =
  (match t.journal with Some j -> Journal.durable j | None -> true)
  && match t.delivery with Some d -> Delivery.durable d | None -> true

let degrade t m =
  if mode_rank m > mode_rank t.mode then begin
    t.mode <- m;
    t.counts.degraded_entries <- t.counts.degraded_entries + 1;
    t.mode_notice_due <- true
  end

(* Stop attempting disk writes entirely: the store keeps serving from
   memory. The journal is recompacted in memory immediately so the
   replication observer re-images the backups past any half-shipped
   append (a refused mirror raises before the [Appended] notify, so
   replicas may have missed chunks). *)
let enter_memory_only t =
  degrade t Memory_only;
  (match t.journal with
  | Some j when Journal.durable j ->
      Journal.set_durable j false;
      Journal.compact j
  | Some _ | None -> ());
  match t.delivery with
  | Some d when Delivery.durable d -> Delivery.set_durable d false
  | Some _ | None -> ()

let jot t record =
  match t.journal with
  | None -> ()
  | Some j ->
      if not t.policy.degrade then Journal.append j record
      else (
        try Journal.append j record
        with Store.Backend.No_space _ | Store.Backend.Stalled _ ->
          (* Memory already holds the record — only the disk mirror was
             refused. First pressure: compact, which both frees space
             (the rewritten image drops everything below the snapshot)
             and republishes the full image, healing the mirror. If
             even the compaction is refused, give up on the disk for
             this episode. *)
          if mode_rank t.mode < mode_rank Durability_degraded then begin
            degrade t Durability_degraded;
            try Journal.compact j
            with Store.Backend.No_space _ | Store.Backend.Stalled _ ->
              enter_memory_only t
          end
          else enter_memory_only t)

(* Delivery-side pressure, checked after any queue mutation: a shed
   enters [Shedding]; a refused queue mirror degrades durability, with
   one immediate flush attempt before conceding memory-only. *)
let note_delivery_pressure t =
  match t.delivery with
  | None -> ()
  | Some d ->
      if not t.policy.degrade then ()
      else begin
        let shed = (Delivery.counters d).Delivery.records_shed in
        if shed > t.sheds_seen then begin
          t.sheds_seen <- shed;
          degrade t Shedding
        end;
        if Delivery.dirty d && Delivery.durable d then begin
          degrade t Durability_degraded;
          if not (Delivery.flush d) then enter_memory_only t
        end
      end

(* Recover-up: one probe, all-or-nothing. Re-arm the mirrors, attempt
   a full republish of journal + every behind queue + the vault slot;
   any refusal disarms again and keeps the mode. On success the ladder
   returns to [Healthy] in a single step and the all-clear notice is
   queued. *)
let try_rearm t =
  if t.mode = Healthy then true
  else begin
    let journal_ok =
      match t.journal with
      | None -> true
      | Some j -> (
          Journal.set_durable j true;
          try
            Journal.compact j;
            true
          with Store.Backend.No_space _ | Store.Backend.Stalled _ ->
            Journal.set_durable j false;
            false)
    in
    let delivery_ok () =
      match t.delivery with
      | None -> true
      | Some d ->
          Delivery.set_durable d true;
          if Delivery.flush d then true
          else begin
            Delivery.set_durable d false;
            false
          end
    in
    let vault_ok () =
      match (t.vault, t.group_key) with
      | Some v, Some gk -> (
          try
            Store.Vault.put v gk.Types.epoch;
            true
          with Store.Backend.No_space _ | Store.Backend.Stalled _ -> false)
      | _ -> true
    in
    let ok = journal_ok && delivery_ok () && vault_ok () in
    if ok then begin
      t.mode <- Healthy;
      t.counts.rearms <- t.counts.rearms + 1;
      t.mode_notice_due <- true
    end;
    ok
  end

let self t = t.self

let session_of t who =
  match Hashtbl.find_opt t.sessions who with
  | Some s -> s
  | None ->
      let s = { mstate = S_not_connected; queue = []; sent_rev = [] } in
      Hashtbl.replace t.sessions who s;
      s

let session t who =
  match (session_of t who).mstate with
  | S_not_connected -> Not_connected
  | S_waiting_for_key_ack { nl; ka; _ } -> Waiting_for_key_ack (nl, ka)
  | S_connected { na; ka } -> Connected (na, ka)
  | S_waiting_for_ack { nl; ka; _ } -> Waiting_for_ack (nl, ka)
  | S_recovering { nc; ka; _ } -> Recovering (nc, ka)

(* A user is "in session" — counted as a member — from the moment its
   AuthAckKey is accepted until its session closes. A recovering
   session is NOT a member yet: the journalled key is trusted only
   once the member answers the challenge. *)
let in_session s =
  match s.mstate with
  | S_connected _ | S_waiting_for_ack _ -> true
  | S_not_connected | S_waiting_for_key_ack _ | S_recovering _ -> false

let members t =
  Hashtbl.fold (fun who s acc -> if in_session s then who :: acc else acc)
    t.sessions []
  |> List.sort String.compare

let group_key t = t.group_key
let sent_admin t who = List.rev (session_of t who).sent_rev
let pending_admin t who = (session_of t who).queue

let drain_events t =
  let es = List.rev t.events_rev in
  t.events_rev <- [];
  es

let emit t e = t.events_rev <- e :: t.events_rev

(* The sentinel's evidence feed: every rejection the protocol machine
   produces maps to an evidence kind. MAC failures are the strongest
   signal (only wrong or expired key material produces them); stale
   nonces and wrong-state frames are what replays and duplicated
   frames look like, so they carry a weight the decay keeps harmless
   at fault-plan rates. *)
let evidence_of_reason : Types.reject_reason -> Sentinel.evidence = function
  | Types.Auth_failure -> Sentinel.Mac_failure
  | Types.Stale_nonce -> Sentinel.Replay
  | Types.Wrong_state _ -> Sentinel.Replay
  | Types.Stale_epoch _ -> Sentinel.Stale_rekey
  | Types.Malformed _ | Types.Identity_mismatch | Types.Unknown_sender _
  | Types.Unexpected_label _ ->
      Sentinel.Malformed

let reject t ?label ?claimed reason =
  emit t (Rejected { label; claimed; reason });
  (match (t.sentinel, claimed) with
  | Some sn, Some who ->
      let via =
        Option.value t.rx_via ~default:(Netsim.Trace.Via_socket who)
      in
      ignore (Sentinel.observe_via sn ~claimed:who ~via (evidence_of_reason reason))
  | _ -> ());
  []

let current_epoch t =
  match t.group_key with Some gk -> gk.Types.epoch | None -> 0

(* --- store-and-forward hooks --- *)

let mark_offline t who =
  if Hashtbl.mem t.directory who then Hashtbl.replace t.offline who ()

let offline_members t =
  Hashtbl.fold (fun who () acc -> who :: acc) t.offline []
  |> List.sort String.compare

let is_offline t who = Hashtbl.mem t.offline who

let queue_for_offline t who x =
  match t.delivery with
  | None -> ()
  | Some d ->
      Delivery.enqueue d ~member:who ~epoch:(current_epoch t) x;
      note_delivery_pressure t

(* Wrappers for everything pending in [who]'s durable queue, per the
   epoch-window policy, clearing the offline mark. The caller routes
   them through the ordinary admin channel (sealed under the live
   session key — this is where "re-seal under the current session
   key" physically happens). *)
let drain_offline t who =
  Hashtbl.remove t.offline who;
  match t.delivery with
  | None -> []
  | Some d ->
      let xs = Delivery.drain d ~member:who ~current_epoch:(current_epoch t) in
      note_delivery_pressure t;
      xs

(* Put one admin payload on the wire for a member whose channel is
   idle: AdminMsg carrying (N_{2i+1} = na, fresh N_{2i+2}). The sealed
   frame is stored so a retransmission re-sends the identical bytes —
   [sent_rev] grows exactly once per payload regardless of how many
   times the frame hits the wire, preserving §5.4. *)
let fire_admin t who s x ~na ~ka =
  (* Rekey racing a drain in flight: a queued fresh-window group key
     may be overtaken by another rotation while it waits its turn on
     the nonce chain. Freshen it at seal time — the wrapper keeps its
     delivery seq (the dedup identity), but the key material put on
     the wire is always the current one, so a drained rekey can never
     install an older key than the member would get live. *)
  let x =
    match (x, t.group_key) with
    | ( Wire.Admin.Queued
          { seq; stale = false; x = Wire.Admin.New_group_key { epoch; _ } },
        Some gk )
      when epoch < gk.Types.epoch ->
        (match t.delivery with
        | Some d -> (Delivery.counters d).Delivery.resealed <-
            (Delivery.counters d).Delivery.resealed + 1
        | None -> ());
        Wire.Admin.Queued
          {
            seq;
            stale = false;
            x =
              Wire.Admin.New_group_key
                { key = Key.raw gk.Types.key; epoch = gk.Types.epoch };
          }
    | _ -> x
  in
  let nl = Wire.Nonce.fresh t.rng in
  s.sent_rev <- x :: s.sent_rev;
  let plaintext =
    P.encode_admin_body { P.l = t.self; a = who; expected = na; next = nl; x }
  in
  let reply =
    Sealed_channel.seal ~rng:t.rng ~key:ka ~label:F.Admin_msg ~sender:t.self
      ~recipient:who plaintext
  in
  s.mstate <- S_waiting_for_ack { nl; ka; reply };
  [ reply ]

let enqueue_admin t who x =
  (* An operator-marked-offline member gets store-and-forward even
     while its session object is still live: the mark says the peer is
     dark, so firing on the channel would only burn retransmissions.
     {!mark_online} drains the queue back through the session. *)
  if is_offline t who && t.delivery <> None then begin
    queue_for_offline t who x;
    []
  end
  else
  let s = session_of t who in
  match s.mstate with
  | S_connected { na; ka } -> fire_admin t who s x ~na ~ka
  | S_waiting_for_ack _ ->
      s.queue <- s.queue @ [ x ];
      []
  | S_recovering _ ->
      (* Hold until the challenge confirms the session; drained by
         {!handle_recovery_response}. *)
      s.queue <- s.queue @ [ x ];
      []
  | S_not_connected | S_waiting_for_key_ack _ ->
      (* Not in session: group-management messages are only for
         members — unless the member is marked offline and a delivery
         layer is present, in which case the message is journalled
         instead of dropped and drained on reconnect. *)
      if is_offline t who then queue_for_offline t who x;
      []

let broadcast_admin t x =
  let live = members t in
  let offline_targets =
    List.filter (fun who -> not (List.mem who live)) (offline_members t)
  in
  List.concat_map (fun who -> enqueue_admin t who x) live
  @ List.concat_map (fun who -> enqueue_admin t who x) offline_targets

let fresh_group_key t =
  let key = Key.fresh Key.Group t.rng in
  let gk = { Types.key; epoch = t.next_epoch } in
  t.next_epoch <- t.next_epoch + 1;
  t.group_key <- Some gk;
  jot t (Journal.Epoch_bump { key = Key.raw key; epoch = gk.Types.epoch });
  (* The vault persists the bare counter through a separate write path:
     losing the journal's tail (torn write, dropped fsync) can lose the
     Epoch_bump record, but not the vault slot — so a later cold
     restart still beacons an epoch members accept. A refused vault
     write degrades rather than fails the rekey; [try_rearm] re-puts
     the current epoch when space returns. *)
  (match t.vault with
  | Some v ->
      if not t.policy.degrade then Store.Vault.put v gk.Types.epoch
      else (
        try Store.Vault.put v gk.Types.epoch
        with Store.Backend.No_space _ | Store.Backend.Stalled _ ->
          degrade t Durability_degraded)
  | None -> ());
  gk

let rekey t =
  let gk = fresh_group_key t in
  broadcast_admin t
    (Wire.Admin.New_group_key { key = Key.raw gk.Types.key; epoch = gk.Types.epoch })

let close_session t who s ~expelled =
  match s.mstate with
  | S_not_connected -> []
  | S_waiting_for_key_ack { ka; _ }
  | S_connected { ka; _ }
  | S_waiting_for_ack { ka; _ }
  | S_recovering { ka; _ } ->
      let was_member = in_session s in
      (* Store-and-forward: an expelled (evicted-as-silent) member goes
         offline — salvage the channel's unfired backlog and the
         unacknowledged in-flight payload into its durable queue.
         Already-[Queued] wrappers are skipped: their backing entries
         are still pending below the ack floor, so the next drain
         re-presents them anyway (re-queueing would duplicate them).
         A voluntary leave instead drops everything queued for the
         member — it asked to go. *)
      (if t.delivery <> None then
         if expelled then begin
           let inflight =
             match (s.mstate, s.sent_rev) with
             | S_waiting_for_ack _, x :: _ -> [ x ]
             | _ -> []
           in
           mark_offline t who;
           List.iter
             (fun x ->
               match x with
               | Wire.Admin.Queued _ -> ()
               | x -> queue_for_offline t who x)
             (inflight @ s.queue)
         end
         else begin
           Hashtbl.remove t.offline who;
           match t.delivery with
           | Some d -> Delivery.clear d ~member:who
           | None -> ()
         end);
      s.mstate <- S_not_connected;
      s.queue <- [];
      s.sent_rev <- [];
      jot t (Journal.Session_closed { member = who });
      if expelled then emit t (Member_expelled { member = who; session_key = ka })
      else emit t (Member_closed { member = who; session_key = ka });
      if was_member then begin
        let notice =
          if expelled then Wire.Admin.Member_expelled who
          else Wire.Admin.Member_left who
        in
        let notices = broadcast_admin t notice in
        let rekeys = if t.policy.rekey_on_leave then rekey t else [] in
        notices @ rekeys
      end
      else []

let expel t who =
  let s = session_of t who in
  if in_session s then close_session t who s ~expelled:true else []

let sentinel t = t.sentinel

(* Containment for one suspect the sentinel escalated to quarantine:
   tear its session down (a half-open or recovering handshake is
   discarded quietly — it never was a member), purge its delivery
   queue instead of salvaging (the store-and-forward plane must not
   keep feeding an insider), broadcast a quarantine notice, and force
   an emergency rekey so every key the suspect ever held is retired
   group-wide. The suspect stays in [contained_done], and the receive
   gate drops its traffic from here on. *)
let quarantine_now t who =
  Hashtbl.replace t.contained_done who ();
  let s = session_of t who in
  let was_member = in_session s in
  let closing =
    if was_member then close_session t who s ~expelled:true
    else begin
      (match s.mstate with
      | S_not_connected -> ()
      | S_waiting_for_key_ack _ | S_recovering _ | S_connected _
      | S_waiting_for_ack _ ->
          s.mstate <- S_not_connected;
          s.queue <- [];
          s.sent_rev <- [];
          jot t (Journal.Session_closed { member = who }));
      []
    end
  in
  (* Undo close_session's expulsion salvage: quarantine policy is
     purge, not store-and-forward. *)
  Hashtbl.remove t.offline who;
  (match t.delivery with
  | Some d ->
      let purged = Delivery.purge d ~member:who in
      if purged > 0 then
        Option.iter (fun sn -> Sentinel.note_queue_purged sn) t.sentinel
  | None -> ());
  let notices = broadcast_admin t (Wire.Admin.Notice ("quarantined:" ^ who)) in
  (* close_session already rotated the group key when the suspect was
     a member under rekey_on_leave; otherwise force the rotation here.
     Either way the containment counts as an emergency rekey. *)
  let rekeys =
    if t.group_key = None then []
    else if was_member && t.policy.rekey_on_leave then []
    else rekey t
  in
  if t.group_key <> None then
    Option.iter (fun sn -> Sentinel.note_emergency_rekey sn) t.sentinel;
  closing @ notices @ rekeys

(* Act on every directory name the sentinel holds at [Quarantined] or
   above and not yet contained. Unknown claimed names never get past
   authentication anyway — containing them would only churn epochs, so
   admission control alone handles them. Idempotent; called at the end
   of [receive] (synchronous detection) and from the driver's periodic
   scan (catches escalations fed by half-open GC). *)
let containment_sweep t =
  match t.sentinel with
  | None -> []
  | Some sn ->
      let contained =
        List.concat_map
          (fun who ->
            if Hashtbl.mem t.contained_done who
               || not (Hashtbl.mem t.directory who)
            then []
            else quarantine_now t who)
          (Sentinel.contained sn)
      in
      (* Liveness challenges: a directory member whose raw score sits
         in quarantine territory but is corroboration-blocked gets a
         sealed notice only the genuine session-key holder can ack.
         The routine admin ack that comes back is the attestation —
         the member needs no new code path — and it wipes the member's
         off-path score, arresting a framer's escalation. An insider's
         evidence is on-path and unaffected by answering. *)
      let challenges =
        List.concat_map
          (fun who ->
            if Hashtbl.mem t.directory who && Sentinel.challenge_due sn who
            then
              match Hashtbl.find_opt t.sessions who with
              | Some { mstate = S_connected _ | S_waiting_for_ack _; _ } ->
                  Sentinel.note_challenged sn who;
                  enqueue_admin t who (Wire.Admin.Notice "liveness-challenge")
              | Some _ | None -> []
            else [])
          (Sentinel.peers sn)
      in
      contained @ challenges

(* Announce a ladder transition: one sealed Notice per transition,
   broadcast over the members' admin channels (and so re-sealed for
   whoever is offline). "degraded:healthy" is the all-clear after a
   successful re-arm. The flag is cleared before broadcasting — a
   broadcast that itself sheds re-queues the notice for the next
   sweep rather than looping here. *)
let mode_sweep t =
  if not t.mode_notice_due then []
  else begin
    t.mode_notice_due <- false;
    broadcast_admin t (Wire.Admin.Notice ("degraded:" ^ mode_name t.mode))
  end

(* The partition healed (or the harness says so): stop journalling and
   start draining. If the member is in session the backlog rides its
   admin channel immediately; out of session the offline mark is kept
   — traffic keeps queueing until an actual reconnect (recovery
   response or re-join) drains it. *)
let mark_online t who =
  let s = session_of t who in
  match s.mstate with
  | S_connected { na; ka } -> (
      s.queue <- s.queue @ drain_offline t who;
      match s.queue with
      | [] -> []
      | x :: rest ->
          s.queue <- rest;
          fire_admin t who s x ~na ~ka)
  | S_waiting_for_ack _ ->
      s.queue <- s.queue @ drain_offline t who;
      []
  | S_recovering _ | S_not_connected | S_waiting_for_key_ack _ -> []

let delivery t = t.delivery

(* --- timeouts --- *)

let half_open t =
  Hashtbl.fold
    (fun who s acc ->
      match s.mstate with S_waiting_for_key_ack _ -> who :: acc | _ -> acc)
    t.sessions []
  |> List.sort String.compare

(* Garbage-collect a half-open handshake: the member never produced
   its AuthAckKey, so it was never a group member — no notices, no
   rekey, no Oops (the provisional Ka never protected anything the
   member acknowledged). A later AuthInitReq simply starts over. *)
let abort_half_open t who =
  let s = session_of t who in
  match s.mstate with
  | S_waiting_for_key_ack _ ->
      s.mstate <- S_not_connected;
      s.queue <- [];
      s.sent_rev <- [];
      (match t.sentinel with
      | Some sn -> ignore (Sentinel.observe sn ~peer:who Sentinel.Half_open)
      | None -> ());
      true
  | S_not_connected | S_connected _ | S_waiting_for_ack _ | S_recovering _ ->
      false

(* Give up on a recovery challenge the member never answered: the
   journalled key is discarded untrusted — the cold path. The member
   was never re-admitted, so no notices or rekeys; if it is alive it
   will cold re-authenticate. *)
let abort_recovery t who =
  let s = session_of t who in
  match s.mstate with
  | S_recovering { ka; _ } ->
      s.mstate <- S_not_connected;
      s.queue <- [];
      s.sent_rev <- [];
      jot t (Journal.Session_closed { member = who });
      emit t (Member_closed { member = who; session_key = ka });
      true
  | S_not_connected | S_waiting_for_key_ack _ | S_connected _
  | S_waiting_for_ack _ ->
      false

let handle_auth_init_req t (frame : F.t) =
  let claimed = frame.F.sender in
  match Hashtbl.find_opt t.directory claimed with
  | None -> reject t ~label:frame.F.label ~claimed (Types.Unknown_sender claimed)
  | Some pa -> (
      let s = session_of t claimed in
      match s.mstate with
      | S_connected _ | S_waiting_for_ack _ ->
          (* Already in session: a replayed or duplicated AuthInitReq
             must not reset an active member (cf. Figure 3: no such
             transition from Connected). *)
          reject t ~label:frame.F.label ~claimed (Types.Wrong_state "in session")
      | S_not_connected | S_waiting_for_key_ack _ | S_recovering _ -> (
          match Sealed_channel.open_ ~key:pa frame with
          | Error reason -> reject t ~label:frame.F.label ~claimed reason
          | Ok plaintext -> (
              match P.decode_auth_init plaintext with
              | Error e -> reject t ~label:frame.F.label ~claimed (Types.Malformed e)
              | Ok { P.a; l; n1 } ->
                  if a <> claimed || l <> t.self then
                    reject t ~label:frame.F.label ~claimed Types.Identity_mismatch
                  else begin
                    match s.mstate with
                    | S_waiting_for_key_ack { init_n1; reply; _ }
                      when Wire.Nonce.equal init_n1 n1 ->
                        (* Duplicate of the request we already answered
                           (network duplication): resend the stored
                           reply — same session key, same nonces — so
                           whichever copy the member processes first,
                           both sides agree. *)
                        [ reply ]
                    | S_not_connected | S_waiting_for_key_ack _
                    | S_recovering _ ->
                        (* A fresh AuthInitReq from a recovering member
                           is the cold fallback: the journalled session
                           is abandoned in favour of a new handshake. *)
                        (match s.mstate with
                        | S_recovering _ ->
                            jot t (Journal.Session_closed { member = a })
                        | _ -> ());
                        let ka = Key.fresh Key.Session t.rng in
                        let n2 = Wire.Nonce.fresh t.rng in
                        let plaintext =
                          P.encode_auth_key_dist
                            { P.l = t.self; a; n1; n2; ka = Key.raw ka }
                        in
                        let reply =
                          Sealed_channel.seal ~rng:t.rng ~key:pa
                            ~label:F.Auth_key_dist ~sender:t.self ~recipient:a
                            plaintext
                        in
                        s.mstate <-
                          S_waiting_for_key_ack
                            { nl = n2; ka; init_n1 = n1; reply };
                        [ reply ]
                    | S_connected _ | S_waiting_for_ack _ ->
                        (* unreachable: outer match excluded these *)
                        []
                  end)))

(* Post-authentication bookkeeping: give the new member the group key
   and the membership, and tell the group. *)
let on_member_joined t who =
  emit t (Member_authenticated who);
  let others = List.filter (fun m -> m <> who) (members t) in
  let welcome_key =
    if t.policy.rekey_on_join || t.group_key = None then rekey t
    else
      match t.group_key with
      | Some gk ->
          enqueue_admin t who
            (Wire.Admin.New_group_key
               { key = Key.raw gk.Types.key; epoch = gk.Types.epoch })
      | None -> []
  in
  let snapshot =
    enqueue_admin t who (Wire.Admin.Membership_snapshot (members t))
  in
  (* Cold rejoin of a member with store-and-forward backlog: drain it
     behind the welcome key and snapshot, each record wrapped per the
     epoch-window policy and riding the ordinary nonce-chained
     channel. *)
  let backlog =
    List.concat_map (fun x -> enqueue_admin t who x) (drain_offline t who)
  in
  let joins =
    List.concat_map
      (fun m -> enqueue_admin t m (Wire.Admin.Member_joined who))
      others
  in
  welcome_key @ snapshot @ backlog @ joins

let handle_auth_ack_key t (frame : F.t) =
  let claimed = frame.F.sender in
  let s = session_of t claimed in
  match s.mstate with
  | S_waiting_for_key_ack { nl; ka; _ } -> (
      match Sealed_channel.open_ ~key:ka frame with
      | Error reason -> reject t ~label:frame.F.label ~claimed reason
      | Ok plaintext -> (
          match P.decode_auth_ack_key plaintext with
          | Error e -> reject t ~label:frame.F.label ~claimed (Types.Malformed e)
          | Ok { P.n2; n3 } ->
              if not (Wire.Nonce.equal n2 nl) then
                reject t ~label:frame.F.label ~claimed Types.Stale_nonce
              else begin
                s.mstate <- S_connected { na = n3; ka };
                jot t
                  (Journal.Session_established
                     { member = claimed; key = Key.raw ka });
                on_member_joined t claimed
              end))
  | S_not_connected | S_connected _ | S_waiting_for_ack _ | S_recovering _ ->
      reject t ~label:frame.F.label ~claimed
        (Types.Wrong_state "not waiting for key ack")

let handle_admin_ack t (frame : F.t) =
  let claimed = frame.F.sender in
  let s = session_of t claimed in
  match s.mstate with
  | S_waiting_for_ack { nl; ka; _ } -> (
      match Sealed_channel.open_ ~key:ka frame with
      | Error reason -> reject t ~label:frame.F.label ~claimed reason
      | Ok plaintext -> (
          match P.decode_admin_ack plaintext with
          | Error e -> reject t ~label:frame.F.label ~claimed (Types.Malformed e)
          | Ok { P.a; l; echo; next } ->
              if a <> claimed || l <> t.self then
                reject t ~label:frame.F.label ~claimed Types.Identity_mismatch
              else if not (Wire.Nonce.equal echo nl) then
                reject t ~label:frame.F.label ~claimed Types.Stale_nonce
              else begin
                (* If the payload just acknowledged was a drained
                   store-and-forward record, the member has durably
                   applied (or deduplicated) it — advance the queue's
                   ack floor so compaction can reclaim it. The order
                   matters for the crash story: the member's ack came
                   first, so a crash before this durable ack merely
                   re-drains the record and the member's delivery
                   floor absorbs the duplicate. *)
                (match (t.delivery, s.sent_rev) with
                | Some d, Wire.Admin.Queued { seq; _ } :: _ ->
                    Delivery.ack d ~member:claimed ~upto:(seq + 1)
                | _ -> ());
                s.mstate <- S_connected { na = next; ka };
                emit t (Ack_received claimed);
                (* A sealed ack under the live session key is exactly
                   the liveness proof a challenge asked for; relief is
                   applied only when a challenge was outstanding. *)
                (match t.sentinel with
                | Some sn -> ignore (Sentinel.note_attested sn claimed)
                | None -> ());
                match s.queue with
                | [] -> []
                | x :: rest ->
                    s.queue <- rest;
                    fire_admin t claimed s x ~na:next ~ka
              end))
  | S_not_connected | S_waiting_for_key_ack _ | S_connected _
  | S_recovering _ ->
      reject t ~label:frame.F.label ~claimed
        (Types.Wrong_state "no outstanding admin message")

let handle_req_close t (frame : F.t) =
  let claimed = frame.F.sender in
  let s = session_of t claimed in
  match s.mstate with
  | S_not_connected ->
      reject t ~label:frame.F.label ~claimed (Types.Wrong_state "not in session")
  | S_waiting_for_key_ack { ka; _ }
  | S_connected { ka; _ }
  | S_waiting_for_ack { ka; _ }
  | S_recovering { ka; _ } -> (
      match Sealed_channel.open_ ~key:ka frame with
      | Error reason -> reject t ~label:frame.F.label ~claimed reason
      | Ok plaintext -> (
          match P.decode_req_close plaintext with
          | Error e -> reject t ~label:frame.F.label ~claimed (Types.Malformed e)
          | Ok { P.a; l } ->
              if a <> claimed || l <> t.self then
                reject t ~label:frame.F.label ~claimed Types.Identity_mismatch
              else close_session t claimed s ~expelled:false))

let handle_app_data t (frame : F.t) =
  let author = frame.F.sender in
  let s = session_of t author in
  if not (in_session s) then
    reject t ~label:frame.F.label ~claimed:author
      (Types.Wrong_state "app data from non-member")
  else
    match t.group_key with
    | None -> reject t ~label:frame.F.label ~claimed:author (Types.Wrong_state "no group key")
    | Some { Types.key; _ } -> (
        (* Verify under the current group key before relaying, so the
           leader never amplifies garbage. *)
        match Sealed_channel.open_group ~key frame with
        | Error reason -> reject t ~label:frame.F.label ~claimed:author reason
        | Ok _plaintext ->
            emit t (App_relayed { author });
            let others = List.filter (fun m -> m <> author) (members t) in
            List.map
              (fun m ->
                F.make ~label:F.App_data ~sender:author ~recipient:m
                  ~body:frame.F.body)
              others)

(* --- view anti-entropy --- *)

let view_digest t =
  Wire.Admin.view_digest ~members:(members t) ~epoch:(current_epoch t)

(* The periodic anti-entropy beacon: the current [View_digest] for
   every member whose admin channel is idle. A member with an
   outstanding AdminMsg is skipped rather than queued behind it — the
   next beacon catches it, and no queue fills with stale digests. *)
let digest_beacon t =
  let digest = view_digest t and epoch = current_epoch t in
  List.concat_map
    (fun who ->
      match (session_of t who).mstate with
      | S_connected _ ->
          t.counts.digests_broadcast <- t.counts.digests_broadcast + 1;
          enqueue_admin t who (Wire.Admin.View_digest { digest; epoch })
      | _ -> [])
    (members t)

(* A member reported its own (digest, epoch). On mismatch, repair with
   the current group key, the full membership, and a fresh digest; on
   match, answer with the digest alone so a probing member learns the
   leader is alive and agrees. *)
let handle_view_resync_req t (frame : F.t) =
  let claimed = frame.F.sender in
  let s = session_of t claimed in
  match s.mstate with
  | S_connected { ka; _ } | S_waiting_for_ack { ka; _ } -> (
      match Sealed_channel.open_ ~key:ka frame with
      | Error reason -> reject t ~label:frame.F.label ~claimed reason
      | Ok plaintext -> (
          match P.decode_view_resync plaintext with
          | Error e -> reject t ~label:frame.F.label ~claimed (Types.Malformed e)
          | Ok { P.a; l; digest; epoch } ->
              if a <> claimed || l <> t.self then
                reject t ~label:frame.F.label ~claimed Types.Identity_mismatch
              else begin
                let mine = view_digest t and my_epoch = current_epoch t in
                if String.equal digest mine && epoch = my_epoch then
                  enqueue_admin t claimed
                    (Wire.Admin.View_digest { digest = mine; epoch = my_epoch })
                else begin
                  t.counts.resyncs_served <- t.counts.resyncs_served + 1;
                  emit t (Resync_served claimed);
                  let rekeys =
                    match t.group_key with
                    | Some gk ->
                        enqueue_admin t claimed
                          (Wire.Admin.New_group_key
                             { key = Key.raw gk.Types.key; epoch = gk.Types.epoch })
                    | None -> []
                  in
                  let snapshot =
                    enqueue_admin t claimed
                      (Wire.Admin.Membership_snapshot (members t))
                  in
                  let digests =
                    enqueue_admin t claimed
                      (Wire.Admin.View_digest
                         { digest = view_digest t; epoch = current_epoch t })
                  in
                  rekeys @ snapshot @ digests
                end
              end))
  | S_not_connected | S_waiting_for_key_ack _ | S_recovering _ ->
      reject t ~label:frame.F.label ~claimed (Types.Wrong_state "not in session")

(* --- warm crash recovery --- *)

let challenge t who ka =
  let nc = Wire.Nonce.fresh t.rng in
  let plaintext = P.encode_recovery_challenge { P.l = t.self; a = who; nc } in
  let reply =
    Sealed_channel.seal ~rng:t.rng ~key:ka ~label:F.Recovery_challenge
      ~sender:t.self ~recipient:who plaintext
  in
  let s = session_of t who in
  s.mstate <- S_recovering { nc; ka; reply };
  reply

(* Re-mark members with surviving store-and-forward backlog as
   offline, so broadcasts keep queueing for them until a reconnect
   drains. The marks themselves are volatile; the queues are the
   durable ground truth they are rebuilt from. *)
let remark_offline t =
  match t.delivery with
  | None -> ()
  | Some d ->
      List.iter
        (fun m -> if Delivery.depth d ~member:m > 0 then mark_offline t m)
        (Delivery.members d)

let recover ~self ~rng ~directory ?policy ~journal ?vault ?delivery ?sentinel
    ~state () =
  let t =
    create ~self ~rng ~directory ?policy ~journal ?vault ?delivery ?sentinel ()
  in
  remark_offline t;
  (match state.Journal.group_key with
  | Some (raw, epoch) ->
      t.group_key <- Some { Types.key = Key.of_raw Key.Group raw; epoch }
  | None -> ());
  t.next_epoch <- max t.next_epoch state.Journal.next_epoch;
  (match vault with
  | Some v -> t.next_epoch <- max t.next_epoch (Store.Vault.get v + 1)
  | None -> ());
  let challenges =
    List.map
      (fun (who, raw) -> challenge t who (Key.of_raw Key.Session raw))
      state.Journal.sessions
  in
  (t, challenges)

(* --- cold-restart beacons --- *)

(* A leader that lost its sessions (journal destroyed or distrusted)
   still remembers, via the journal's surviving prefix, which epoch
   the group had reached. Instead of sitting silent until every
   member's watchdog expires, it broadcasts an authenticated beacon
   under each member's long-term [P_a]. The beacon itself grants
   nothing: members answer with a liveness challenge, and only the
   incarnation that generated these nonces can ack it. *)
let cold_recover ~self ~rng ~directory ?policy ?journal ?vault ?delivery
    ?sentinel ?(beacons = true) ~state () =
  let t =
    create ~self ~rng ~directory ?policy ?journal ?vault ?delivery ?sentinel ()
  in
  remark_offline t;
  t.next_epoch <- max t.next_epoch state.Journal.next_epoch;
  let journal_epoch =
    match state.Journal.group_key with Some (_, e) -> e | None -> 0
  in
  (* The vault may remember a bump the journal's tail lost: beacon the
     maximum of the two so members whose epoch moved with the lost
     bump do not reject the beacon as stale (E19b's residue). *)
  let epoch =
    match vault with
    | Some v -> max journal_epoch (Store.Vault.get v)
    | None -> journal_epoch
  in
  t.next_epoch <- max t.next_epoch (epoch + 1);
  (* Make the epoch floor durable immediately, so a second crash
     before the first rekey still cannot regress the epoch. *)
  if t.next_epoch > 1 then
    jot t
      (Journal.Snapshot
         { Journal.sessions = []; group_key = None; next_epoch = t.next_epoch });
  t.beacon_epoch <- Some epoch;
  let targets =
    Hashtbl.fold (fun who _ acc -> who :: acc) t.directory []
    |> List.sort String.compare
  in
  let sealed =
    List.map
      (fun who ->
        let pa = Hashtbl.find t.directory who in
        let nb = Wire.Nonce.fresh t.rng in
        Hashtbl.replace t.cold_nb who nb;
        let plaintext =
          P.encode_cold_restart { P.l = t.self; a = who; epoch; nb }
        in
        ( who,
          nb,
          Sealed_channel.seal ~rng:t.rng ~key:pa ~label:F.Cold_restart
            ~sender:t.self ~recipient:who plaintext ))
      targets
  in
  if beacons then t.beacons <- sealed;
  (t, List.map (fun (_, _, frame) -> frame) t.beacons)

let handle_cold_restart_challenge t (frame : F.t) =
  let claimed = frame.F.sender in
  match t.beacon_epoch with
  | None ->
      (* A live (never-cold) incarnation answers no beacon challenges:
         this is what makes a replayed beacon harmless — the member
         stays in session because no ack will ever come. *)
      reject t ~label:frame.F.label ~claimed
        (Types.Wrong_state "not a cold-restarted leader")
  | Some _ -> (
      let s = session_of t claimed in
      if in_session s then
        (* The member already re-authenticated; a late or replayed
           challenge must not elicit an ack that could reset it. *)
        reject t ~label:frame.F.label ~claimed (Types.Wrong_state "in session")
      else
        match Hashtbl.find_opt t.directory claimed with
        | None ->
            reject t ~label:frame.F.label ~claimed (Types.Unknown_sender claimed)
        | Some pa -> (
            match Sealed_channel.open_ ~key:pa frame with
            | Error reason -> reject t ~label:frame.F.label ~claimed reason
            | Ok plaintext -> (
                match P.decode_cold_restart_challenge plaintext with
                | Error e ->
                    reject t ~label:frame.F.label ~claimed (Types.Malformed e)
                | Ok { P.a; l; echo; nm } ->
                    if a <> claimed || l <> t.self then
                      reject t ~label:frame.F.label ~claimed
                        Types.Identity_mismatch
                    else
                      match Hashtbl.find_opt t.cold_nb claimed with
                      | Some nb when Wire.Nonce.equal echo nb ->
                          emit t (Cold_restart_acked claimed);
                          let plaintext =
                            P.encode_cold_restart_ack
                              { P.l = t.self; a = claimed; echo = nm }
                          in
                          [
                            Sealed_channel.seal ~rng:t.rng ~key:pa
                              ~label:F.Cold_restart_ack ~sender:t.self
                              ~recipient:claimed plaintext;
                          ]
                      | Some _ | None ->
                          reject t ~label:frame.F.label ~claimed
                            Types.Stale_nonce)))

let handle_recovery_response t (frame : F.t) =
  let claimed = frame.F.sender in
  let s = session_of t claimed in
  match s.mstate with
  | S_recovering { nc; ka; _ } -> (
      match Sealed_channel.open_ ~key:ka frame with
      | Error reason -> reject t ~label:frame.F.label ~claimed reason
      | Ok plaintext -> (
          match P.decode_recovery_response plaintext with
          | Error e -> reject t ~label:frame.F.label ~claimed (Types.Malformed e)
          | Ok { P.a; l; echo; next } ->
              if a <> claimed || l <> t.self then
                reject t ~label:frame.F.label ~claimed Types.Identity_mismatch
              else if not (Wire.Nonce.equal echo nc) then
                reject t ~label:frame.F.label ~claimed Types.Stale_nonce
              else begin
                (* The member proved it holds K_a and answered THIS
                   challenge: re-admit it and re-seed the admin nonce
                   chain from its fresh nonce. *)
                s.mstate <- S_connected { na = next; ka };
                t.counts.recoveries <- t.counts.recoveries + 1;
                emit t (Member_recovered claimed);
                (* Warm reconnect over the existing session: drain the
                   member's store-and-forward backlog into the channel
                   it just revalidated — no re-handshake, no new keys,
                   just the nonce chain picking up where the challenge
                   re-seeded it. *)
                s.queue <- s.queue @ drain_offline t claimed;
                match s.queue with
                | [] -> []
                | x :: rest ->
                    s.queue <- rest;
                    fire_admin t claimed s x ~na:next ~ka
              end))
  | S_not_connected | S_waiting_for_key_ack _ | S_connected _
  | S_waiting_for_ack _ ->
      reject t ~label:frame.F.label ~claimed
        (Types.Wrong_state "no outstanding recovery challenge")

let receive t ?via bytes =
  t.rx_via <- via;
  Fun.protect ~finally:(fun () -> t.rx_via <- None) @@ fun () ->
  let replies =
    match F.decode bytes with
    | Error e -> reject t (Types.Malformed e)
    | Ok frame -> (
        let quarantined =
          match t.sentinel with
          | Some sn -> (
              match Sentinel.level sn frame.F.sender with
              | Sentinel.Quarantined | Sentinel.Expelled ->
                  (* Containment gate: a quarantined peer's traffic is
                     dropped before any protocol processing — it cannot
                     even produce rejections to probe with. The drop
                     itself is (weak) evidence, so a persistent
                     attacker escalates to Expelled. *)
                  Sentinel.note_quarantined_drop sn ?via frame.F.sender;
                  true
              | Sentinel.Clear | Sentinel.Rate_limited -> false)
          | None -> false
        in
        if quarantined then []
        else
          match frame.F.label with
          | F.Auth_init_req -> handle_auth_init_req t frame
          | F.Auth_ack_key -> handle_auth_ack_key t frame
          | F.Admin_ack -> handle_admin_ack t frame
          | F.Req_close -> handle_req_close t frame
          | F.App_data -> handle_app_data t frame
          | F.Recovery_response -> handle_recovery_response t frame
          | F.View_resync_req -> handle_view_resync_req t frame
          | F.Cold_restart_challenge -> handle_cold_restart_challenge t frame
          | F.Req_open | F.Ack_open | F.Connection_denied | F.Legacy_auth1
          | F.Legacy_auth2 | F.Legacy_auth3 | F.New_key | F.New_key_ack
          | F.Legacy_req_close | F.Close_connection | F.Mem_joined
          | F.Mem_removed | F.Auth_key_dist | F.Admin_msg
          | F.Recovery_challenge | F.Cold_restart | F.Cold_restart_ack
          | F.Repl_record | F.Repl_ack | F.Repl_fetch | F.Repl_stale ->
              reject t ~label:frame.F.label
                (Types.Unexpected_label frame.F.label))
  in
  (* Evidence scored during this dispatch may have crossed a
     threshold: contain synchronously, so the reply to the frame that
     unmasked an insider already carries the quarantine notice and
     emergency rekey. *)
  replies @ containment_sweep t @ mode_sweep t

(* --- the timer tick --- *)

type timers = {
  period : Netsim.Vtime.t;
  max_interval : Netsim.Vtime.t;
  deadline : Netsim.Vtime.t;
  expel : bool;
  retry : bool;
}

(* What an outstanding frame is waiting on. The order is the order of
   one tick's pass. *)
type awaited = Key_ack | Admin_ack | Challenge_answer | Beacon_answer

let not_connected t who =
  match (session_of t who).mstate with S_not_connected -> true | _ -> false

(* Every frame this leader waits on, with its nonce, sorted by kind and
   then by member. A beacon is waited on while its member is out of
   session; handshake and admin frames only with [retry]. *)
let awaited t ~retry =
  Hashtbl.fold
    (fun who s acc ->
      match s.mstate with
      | S_waiting_for_key_ack { nl; reply; _ } when retry ->
          (Key_ack, who, nl, reply) :: acc
      | S_waiting_for_ack { nl; reply; _ } when retry ->
          (Admin_ack, who, nl, reply) :: acc
      | S_recovering { nc; reply; _ } -> (Challenge_answer, who, nc, reply) :: acc
      | S_waiting_for_key_ack _ | S_waiting_for_ack _ | S_not_connected
      | S_connected _ ->
          acc)
    t.sessions
    (List.map (fun (who, nb, frame) -> (Beacon_answer, who, nb, frame)) t.beacons)
  |> List.sort (fun (k, w, _, _) (k', w', _, _) -> compare (k, w) (k', w'))

(* Handshake and admin frames double their interval up to the cap;
   challenges and beacons are re-sent every period, since their
   deadline is short and a late answer costs the member a cold
   re-authentication. *)
let next_interval timers kind interval =
  match kind with
  | Challenge_answer | Beacon_answer -> timers.period
  | Key_ack | Admin_ack ->
      let d = Int64.mul 2L interval in
      if Netsim.Vtime.(timers.max_interval < d) then timers.max_interval else d

let count_resend (c : counters) = function
  | Key_ack -> c.keydist_retransmits <- c.keydist_retransmits + 1
  | Admin_ack -> c.admin_retransmits <- c.admin_retransmits + 1
  | Challenge_answer -> c.challenge_retransmits <- c.challenge_retransmits + 1
  | Beacon_answer -> c.beacon_retransmits <- c.beacon_retransmits + 1

(* A frame past its deadline. An expelled member's session is freed,
   so a later re-handshake is accepted instead of rejected as "in
   session". *)
let give_up t kind who =
  match kind with
  | Key_ack ->
      if abort_half_open t who then
        t.counts.half_open_gcs <- t.counts.half_open_gcs + 1;
      []
  | Admin_ack -> expel t who
  | Challenge_answer ->
      if abort_recovery t who then
        t.counts.challenges_failed <- t.counts.challenges_failed + 1;
      []
  | Beacon_answer ->
      t.beacons <- List.filter (fun (w, _, _) -> w <> who) t.beacons;
      []

let tick t ~now timers =
  let deadline = function
    | Admin_ack when not timers.expel -> None
    | Key_ack | Admin_ack | Challenge_answer | Beacon_answer ->
        Some timers.deadline
  in
  (* A beacon whose member rejoined has done its job. *)
  t.beacons <- List.filter (fun (who, _, _) -> not_connected t who) t.beacons;
  let waiting = awaited t ~retry:timers.retry in
  Hashtbl.filter_map_inplace
    (fun nonce w ->
      if List.exists (fun (_, _, n, _) -> Wire.Nonce.equal n nonce) waiting
      then Some w
      else None)
    t.watches;
  let visit (kind, who, nonce, frame) =
    match Hashtbl.find_opt t.watches nonce with
    | None ->
        Hashtbl.replace t.watches nonce
          { first_seen = now; last_sent = now; interval = timers.period };
        []
    | Some w -> (
        match deadline kind with
        | Some d when Netsim.Vtime.(d <= Int64.sub now w.first_seen) ->
            Hashtbl.remove t.watches nonce;
            give_up t kind who
        | Some _ | None ->
            if Netsim.Vtime.(w.interval <= Int64.sub now w.last_sent) then begin
              count_resend t.counts kind;
              w.last_sent <- now;
              w.interval <- next_interval timers kind w.interval;
              [ frame ]
            end
            else [])
  in
  let resent = List.concat_map visit waiting in
  (* Act on an escalation a half-open GC just fed, rather than at the
     suspect's next frame. Below Healthy, retry the all-or-nothing
     re-arm (it succeeds once the pressure has lifted), then flush any
     ladder notice — a rung entered outside [receive], or the re-arm's
     all-clear. *)
  if timers.retry then begin
    let contained = containment_sweep t in
    if t.mode <> Healthy then ignore (try_rearm t);
    resent @ contained @ mode_sweep t
  end
  else resent
