module F = Wire.Frame

let send_frames net ~src frames =
  List.iter
    (fun (frame : F.t) ->
      Netsim.Network.send net ~src ~dst:frame.F.recipient (F.encode frame))
    frames

module Improved = struct
  type retry_config = {
    handshake_initial : Netsim.Vtime.t;
    handshake_max : Netsim.Vtime.t;
    backoff : float;
    jitter : float;
    scan_period : Netsim.Vtime.t;
    half_open_gc : Netsim.Vtime.t;
  }

  let default_retry =
    {
      handshake_initial = Netsim.Vtime.of_ms 250;
      handshake_max = Netsim.Vtime.of_s 4;
      backoff = 2.0;
      jitter = 0.2;
      scan_period = Netsim.Vtime.of_ms 200;
      half_open_gc = Netsim.Vtime.of_s 3;
    }

  type retry_stats = {
    mutable handshake_retransmits : int;
    mutable keydist_retransmits : int;
    mutable admin_retransmits : int;
    mutable half_open_gcs : int;
    mutable session_resets : int;
  }

  let fresh_retry_stats () =
    {
      handshake_retransmits = 0;
      keydist_retransmits = 0;
      admin_retransmits = 0;
      half_open_gcs = 0;
      session_resets = 0;
    }

  (* Pre-auth flood control: the unauthenticated handshake path is the
     one surface a peer can hit without any key material, so it gets
     its own bounded service queue. [AuthInitReq] frames are not
     handed to the leader on arrival: they wait in a FIFO of at most
     [capacity] frames (tail drop beyond that) and are served in
     batches of [burst] every jittered [period], so a flood pays in
     queueing delay and overflow instead of leader work — and cannot
     phase-lock onto the service clock. With an intrusion sentinel
     configured, {!Sentinel.admit_preauth} runs at the queue door:
     throttled, capped and quarantined claimants never occupy a
     slot. *)
  type preauth_config = {
    capacity : int;  (** Queue bound; arrivals beyond it tail-drop. *)
    period : Netsim.Vtime.t;  (** Service tick (±25% jitter). *)
    burst : int;  (** Handshakes served per tick. *)
  }

  let default_preauth =
    { capacity = 32; period = Netsim.Vtime.of_ms 50; burst = 4 }

  (* Leader-side watch entry for one outstanding frame (identified by
     its nonce): when the nonce survives a whole scan interval the
     frame is re-sent, with per-entry exponential backoff. *)
  type lwatch = {
    mutable w_nonce : Wire.Nonce.t;
    mutable first_seen : Netsim.Vtime.t;
    mutable last_rtx : Netsim.Vtime.t;
    mutable interval : Netsim.Vtime.t;
  }

  type recovery_config = {
    digest_period : Netsim.Vtime.t;
    challenge_timeout : Netsim.Vtime.t;
    probe_after : Netsim.Vtime.t;
    reset_after : Netsim.Vtime.t;
    beacon_on_cold : bool;
  }

  let default_recovery =
    {
      digest_period = Netsim.Vtime.of_s 1;
      challenge_timeout = Netsim.Vtime.of_s 3;
      probe_after = Netsim.Vtime.of_s 4;
      reset_after = Netsim.Vtime.of_s 10;
      beacon_on_cold = true;
    }

  type recovery_stats = {
    mutable leader_crashes : int;
    mutable warm_restarts : int;
    mutable cold_restarts : int;
    mutable challenges_sent : int;
    mutable challenge_retransmits : int;
    mutable challenges_failed : int;
    mutable digests_broadcast : int;
    mutable probes_sent : int;
    mutable cold_reauths : int;
    mutable cold_beacons_sent : int;
    mutable beacon_reauths : int;
    mutable crash_images : int;
  }

  let fresh_recovery_stats () =
    {
      leader_crashes = 0;
      warm_restarts = 0;
      cold_restarts = 0;
      challenges_sent = 0;
      challenge_retransmits = 0;
      challenges_failed = 0;
      digests_broadcast = 0;
      probes_sent = 0;
      cold_reauths = 0;
      cold_beacons_sent = 0;
      beacon_reauths = 0;
      crash_images = 0;
    }

  type t = {
    sim : Netsim.Sim.t;
    net : Netsim.Network.t;
    node : Node.t;  (* the leader process, across incarnations *)
    members : (Types.agent, Member.t) Hashtbl.t;
    directory : (Types.agent * string) list;
    retry : retry_config option;
    rstats : retry_stats;
    recovery : recovery_config option;
    recstats : recovery_stats;
    jrng : Prng.Splitmix.t;  (* jitter; split off the root stream *)
    preauth : preauth_config option;
    sentinel : Sentinel.t option;
        (* Owned by the node across incarnations; the driver also needs
           it at the pre-auth door. *)
    preauth_q : (string * Netsim.Trace.via option) Queue.t;
        (* Encoded [AuthInitReq] frames awaiting pre-auth service,
           with the injection path each arrived over — the path is
           only observable during the synchronous delivery, so it is
           captured at enqueue time. *)
    mutable preauth_dropped : int;  (* tail drops at the full queue *)
    mutable injections_blocked : int;
        (* Wire-injected frames dropped at the door after the wire
           pseudo-peer reached quarantine. *)
    mutable pump_scheduled : bool;
    prng_pump : Prng.Splitmix.t;
        (* Service jitter. Seeded independently of the root stream so
           enabling the pump perturbs no other consumer's draws. *)
    watches : (Types.agent, lwatch) Hashtbl.t;
    pending_close : (Types.agent, Wire.Frame.t list) Hashtbl.t;
        (* Close frames from a session reset, re-sent alongside the
           handshake retransmit until the new session is accepted: if
           the close is lost the leader still holds the old session
           and rejects every AuthInitReq as "in session" — a permanent
           wedge otherwise. *)
  }

  (* The current incarnation; after a crash, the dead one until the
     restart replaces it. *)
  let leader t = Node.leader t.node
  let leader_down t = Node.down t.node

  let deliver_to_leader t ?via bytes =
    let replies = Leader.receive (leader t) ?via bytes in
    send_frames t.net ~src:(Leader.self (leader t)) replies

  (* Serve the pre-auth queue: at most [burst] queued handshakes per
     jittered [period] tick. Demand-driven — a tick is scheduled only
     while frames wait — so the pump never blocks quiescence. Each
     tick ends with a containment sweep: a flood that just pushed its
     author over the quarantine threshold is acted on before the next
     batch is served. *)
  let rec schedule_pump t cfg =
    if not t.pump_scheduled then begin
      t.pump_scheduled <- true;
      let period_f = Int64.to_float cfg.period in
      let displace =
        Int64.of_float
          (period_f *. 0.25
          *. ((Prng.Splitmix.next_float t.prng_pump *. 2.0) -. 1.0))
      in
      let delay = Int64.max 1L (Int64.add cfg.period displace) in
      Netsim.Sim.schedule t.sim ~delay (fun () ->
          t.pump_scheduled <- false;
          if not (leader_down t) then begin
            let served = ref 0 in
            while !served < cfg.burst && not (Queue.is_empty t.preauth_q) do
              incr served;
              let bytes, via = Queue.pop t.preauth_q in
              deliver_to_leader t ?via bytes
            done;
            send_frames t.net ~src:(Leader.self (leader t))
              (Leader.containment_sweep (leader t));
            if not (Queue.is_empty t.preauth_q) then schedule_pump t cfg
          end)
    end

  (* Admission check for one decoded [AuthInitReq]. Without a sentinel
     everything is admitted (the bounded queue alone is the baseline
     flood behaviour — it fills, and joins starve in FIFO order). *)
  let admit_preauth t ?via (frame : F.t) =
    match t.sentinel with
    | None -> true
    | Some sn -> (
        let who = frame.F.sender in
        let known = List.mem_assoc who t.directory in
        let resuming =
          match Leader.session (leader t) who with
          | Leader.Waiting_for_key_ack _ -> true
          | Leader.Not_connected | Leader.Connected _ | Leader.Waiting_for_ack _
          | Leader.Recovering _ ->
              false
        in
        let half_open = List.length (Leader.half_open (leader t)) in
        match
          Sentinel.admit_preauth sn ?via ~peer:who ~known ~resuming ~half_open ()
        with
        | Sentinel.Admit -> true
        | Sentinel.Throttled | Sentinel.Capped | Sentinel.Denied_quarantined ->
            false)

  (* Storage pressure tightens the unauthenticated door. While the
     leader sits below Healthy on the degraded-mode ladder, claimants
     absent from the directory are refused outright — an unknown peer
     cannot become a member anyway, and every queued handshake costs
     work the degraded leader should spend recovering — and the
     pre-auth queue runs at a quarter of its configured bound, so a
     flood pays in tail drops sooner. Directory members still join:
     their retransmission watchdog covers any tail drop. *)
  let effective_capacity t cfg =
    if Leader.mode (leader t) = Leader.Healthy then cfg.capacity
    else max 1 (cfg.capacity / 4)

  let gate_preauth t ?via bytes frame =
    if
      Leader.mode (leader t) <> Leader.Healthy
      && not (List.mem_assoc frame.F.sender t.directory)
    then t.preauth_dropped <- t.preauth_dropped + 1
    else if admit_preauth t ?via frame then
      match t.preauth with
      | None -> deliver_to_leader t ?via bytes
      | Some cfg ->
          if Queue.length t.preauth_q >= effective_capacity t cfg then
            t.preauth_dropped <- t.preauth_dropped + 1
          else begin
            Queue.push (bytes, via) t.preauth_q;
            schedule_pump t cfg
          end
    else
      (* The denial itself scored evidence; contain synchronously so a
         flood is cut on the frame that crossed the threshold. *)
      send_frames t.net ~src:(Leader.self (leader t))
        (Leader.containment_sweep (leader t))

  (* The handler reads [leader t] at delivery time, so re-registering
     after a restart picks up the replacement automaton. The
     unauthenticated handshake path additionally passes the pre-auth
     gate when flood control or a sentinel is configured. *)
  let attach_leader t =
    Netsim.Network.register t.net (Leader.self (leader t)) (fun bytes ->
        if not (leader_down t) then begin
          let via = Netsim.Network.delivering_via t.net in
          (* Door check for raw wire injections: once the wire
             pseudo-peer itself is quarantined (a sustained pathless
             campaign), further [Via_wire] frames are dropped before
             any protocol or admission processing — the injector is
             contained without any member being blamed. *)
          let wire_blocked =
            match (via, t.sentinel) with
            | Some Netsim.Trace.Via_wire, Some sn ->
                Sentinel.level_rank (Sentinel.level sn Sentinel.wire_peer)
                >= Sentinel.level_rank Sentinel.Quarantined
            | _ -> false
          in
          if wire_blocked then
            t.injections_blocked <- t.injections_blocked + 1
          else
            match (t.preauth, t.sentinel) with
            | None, None -> deliver_to_leader t ?via bytes
            | _ -> (
                match F.decode bytes with
                | Ok ({ F.label = F.Auth_init_req; _ } as frame) ->
                    gate_preauth t ?via bytes frame
                | Ok _ | Error _ -> deliver_to_leader t ?via bytes)
        end)

  let scale time f = Int64.of_float (Int64.to_float time *. f)

  let jittered t cfg delay =
    if cfg.jitter <= 0.0 then delay
    else
      let factor =
        1.0 -. cfg.jitter
        +. (Prng.Splitmix.next_float t.jrng *. 2.0 *. cfg.jitter)
      in
      scale delay factor

  let next_delay cfg delay =
    let d = scale delay cfg.backoff in
    if Netsim.Vtime.(cfg.handshake_max < d) then cfg.handshake_max else d

  (* One periodic leader-side pass: retransmit outstanding AuthKeyDist
     and AdminMsg frames whose nonce has not moved since the previous
     scan, and garbage-collect handshakes half-open past the GC age. *)
  let leader_scan t cfg () =
    if not (leader_down t) then begin
    let now = Netsim.Sim.now t.sim in
    let l = leader t in
    let lname = Leader.self l in
    let half_open = Leader.half_open l in
    let awaiting = Leader.awaiting_ack l in
    let live = half_open @ awaiting in
    Hashtbl.iter
      (fun who _ ->
        if not (List.mem who live) then Hashtbl.remove t.watches who)
      (Hashtbl.copy t.watches);
    let nonce_of who =
      match Leader.session l who with
      | Leader.Waiting_for_key_ack (nl, _) | Leader.Waiting_for_ack (nl, _) ->
          Some nl
      | Leader.Not_connected | Leader.Connected _ | Leader.Recovering _ ->
          (* Recovery challenges have their own retransmission scan. *)
          None
    in
    let visit ~is_half_open who =
      match nonce_of who with
      | None -> ()
      | Some nl -> (
          match Hashtbl.find_opt t.watches who with
          | Some w when Wire.Nonce.equal w.w_nonce nl ->
              if
                is_half_open
                && Netsim.Vtime.(cfg.half_open_gc <= Int64.sub now w.first_seen)
              then begin
                if Leader.abort_half_open l who then
                  t.rstats.half_open_gcs <- t.rstats.half_open_gcs + 1;
                Hashtbl.remove t.watches who
              end
              else if Netsim.Vtime.(w.interval <= Int64.sub now w.last_rtx)
              then begin
                send_frames t.net ~src:lname (Leader.retransmit l who);
                if is_half_open then
                  t.rstats.keydist_retransmits <-
                    t.rstats.keydist_retransmits + 1
                else t.rstats.admin_retransmits <- t.rstats.admin_retransmits + 1;
                w.last_rtx <- now;
                w.interval <- next_delay cfg w.interval
              end
          | Some w ->
              (* Progress: a different frame is outstanding now. *)
              w.w_nonce <- nl;
              w.first_seen <- now;
              w.last_rtx <- now;
              w.interval <- cfg.scan_period
          | None ->
              Hashtbl.replace t.watches who
                {
                  w_nonce = nl;
                  first_seen = now;
                  last_rtx = now;
                  interval = cfg.scan_period;
                })
    in
    List.iter (visit ~is_half_open:true) half_open;
    List.iter (visit ~is_half_open:false) awaiting;
    (* Half-open GC just scored [Half_open] evidence; act on any
       escalation now rather than waiting for the suspect's next
       frame. *)
    send_frames t.net ~src:lname (Leader.containment_sweep l);
    (* Re-arm probe: while the leader sits below Healthy on the
       degraded-mode ladder, each scan tick retries the all-or-nothing
       re-arm — it succeeds exactly when the storage pressure has
       lifted, and fails without side effects while it has not. The
       sweep then flushes any pending mode notice (a rung entered
       outside [Leader.receive], or the "healthy" all-clear the
       re-arm just queued) to the membership. *)
    if Leader.mode l <> Leader.Healthy then ignore (Leader.try_rearm l);
    send_frames t.net ~src:lname (Leader.mode_sweep l)
    end

  let member t who =
    match Hashtbl.find_opt t.members who with
    | Some m -> m
    | None -> raise Not_found

  (* Member-side watchdog: retransmit the handshake with capped
     exponential backoff and jitter while it is outstanding; tear down
     and restart a session that authenticated but never received its
     first admin message (the leader's half of the handshake was lost
     and then GC'd). Stops by itself once this member has the group
     key — from then on liveness is the leader scan's job. *)
  let rec watch_member t cfg who ~delay ~keyless_ticks =
    Netsim.Sim.schedule t.sim ~delay:(jittered t cfg delay) (fun () ->
        let m = member t who in
        match Member.state m with
        | Member.Waiting_for_key _ ->
            (* If a session reset's close never reached the leader, it
               still holds the old session and rejects our AuthInitReq
               — re-send the close first. *)
            (match Hashtbl.find_opt t.pending_close who with
            | Some close -> send_frames t.net ~src:who close
            | None -> ());
            send_frames t.net ~src:who (Member.retransmit_join m);
            t.rstats.handshake_retransmits <- t.rstats.handshake_retransmits + 1;
            watch_member t cfg who ~delay:(next_delay cfg delay)
              ~keyless_ticks:0
        | Member.Connected _ when Member.group_key m = None ->
            Hashtbl.remove t.pending_close who;
            if keyless_ticks >= 1 then begin
              (* Two consecutive keyless observations: the leader no
                 longer runs our session. Close and start over. *)
              t.rstats.session_resets <- t.rstats.session_resets + 1;
              let close = Member.leave m in
              send_frames t.net ~src:who close;
              Hashtbl.replace t.pending_close who close;
              send_frames t.net ~src:who (Member.join m);
              watch_member t cfg who ~delay:cfg.handshake_initial
                ~keyless_ticks:0
            end
            else
              watch_member t cfg who ~delay:(next_delay cfg delay)
                ~keyless_ticks:(keyless_ticks + 1)
        | Member.Connected _ | Member.Not_connected ->
            Hashtbl.remove t.pending_close who)

  (* --- view anti-entropy --- *)

  (* Periodic beacon: enqueue the current [View_digest] for every
     member whose admin channel is idle. Members with an outstanding
     AdminMsg are skipped (not queued behind it) — the next beacon
     will catch them, and the queue cannot fill with stale digests. *)
  let broadcast_digests t =
    if not (leader_down t) then begin
      let l = leader t in
      let digest = Leader.view_digest l in
      let epoch =
        match Leader.group_key l with
        | Some gk -> gk.Types.epoch
        | None -> 0
      in
      List.iter
        (fun who ->
          match Leader.session l who with
          | Leader.Connected _ ->
              t.recstats.digests_broadcast <- t.recstats.digests_broadcast + 1;
              send_frames t.net ~src:(Leader.self l)
                (Leader.enqueue_admin l who
                   (Wire.Admin.View_digest { digest; epoch }))
          | Leader.Not_connected | Leader.Waiting_for_key_ack _
          | Leader.Waiting_for_ack _ | Leader.Recovering _ ->
              ())
        (Leader.members l)
    end

  (* Member-side anti-entropy watchdog: a keyed member that stops
     seeing beacons first probes the leader with its own digest
     ([probe_after] of silence), then — if the probe also goes
     unanswered — tears the session down and cold re-authenticates
     ([reset_after]). This is the member's escape hatch when a leader
     restart dropped it (failed challenge, damaged journal): the
     member cannot distinguish that from a dead leader, so it probes,
     then rejoins from scratch. *)
  let rec ae_watch t rc who ~last_seen ~silent_for =
    Netsim.Sim.schedule t.sim ~delay:rc.digest_period (fun () ->
        let m = member t who in
        let seen = Member.digests_seen m in
        if
          (not (Member.is_connected m))
          || Member.group_key m = None
          || seen > last_seen
        then ae_watch t rc who ~last_seen:seen ~silent_for:0L
        else begin
          let silent = Int64.add silent_for rc.digest_period in
          if Netsim.Vtime.(rc.reset_after <= silent) then begin
            t.recstats.cold_reauths <- t.recstats.cold_reauths + 1;
            let close = Member.leave m in
            send_frames t.net ~src:who close;
            Hashtbl.replace t.pending_close who close;
            send_frames t.net ~src:who (Member.join m);
            (match t.retry with
            | Some cfg ->
                watch_member t cfg who ~delay:cfg.handshake_initial
                  ~keyless_ticks:0
            | None -> ());
            ae_watch t rc who ~last_seen:(Member.digests_seen m) ~silent_for:0L
          end
          else begin
            if Netsim.Vtime.(rc.probe_after <= silent) then begin
              t.recstats.probes_sent <- t.recstats.probes_sent + 1;
              send_frames t.net ~src:who (Member.resync_request m)
            end;
            ae_watch t rc who ~last_seen ~silent_for:silent
          end
        end)

  (* The member handler also watches for a completed cold-restart
     beacon handshake: the member has already reset and sent its
     AuthInitReq (inside [Member.receive]); the driver's job is to
     count the shortcut and re-arm the handshake watchdog so a lost
     reply still heals. *)
  let attach_member t m =
    let who = Member.self m in
    Netsim.Network.register t.net who (fun bytes ->
        let replies = Member.receive m bytes in
        send_frames t.net ~src:who replies;
        if Member.consume_beacon_reset m then begin
          t.recstats.beacon_reauths <- t.recstats.beacon_reauths + 1;
          Hashtbl.remove t.pending_close who;
          match t.retry with
          | Some cfg ->
              watch_member t cfg who ~delay:cfg.handshake_initial
                ~keyless_ticks:0
          | None -> ()
        end)

  let create ?(seed = 42L) ?latency_us ?policy ?retry ?recovery ?storage_faults
      ?delivery ?delivery_budgets ?preauth ?intrusion ~leader ~directory () =
    let sim = Netsim.Sim.create ~seed () in
    let net = Netsim.Network.create ~sim ?latency_us () in
    let rng = Netsim.Sim.rng sim in
    let sentinel =
      Option.map
        (fun config ->
          Sentinel.create ~config ~clock:(fun () -> Netsim.Sim.now sim) ())
        intrusion
    in
    (* With recovery on, the leader writes through a simulated disk —
       optionally wrapped in the seeded fault layer — so a crash can
       capture the durable image instead of trusting the live buffer. *)
    let node =
      Node.create ~self:leader ~rng ~directory ?policy
        ?disk:(Option.map (fun _ -> Store.Mem.create ()) recovery)
        ?faults:storage_faults ?delivery ?budgets:delivery_budgets ?sentinel
        ~standby:false ()
    in
    let members = Hashtbl.create 8 in
    let t =
      {
        sim;
        net;
        node;
        members;
        directory;
        retry;
        rstats = fresh_retry_stats ();
        recovery;
        recstats = fresh_recovery_stats ();
        jrng = Prng.Splitmix.split rng;
        preauth;
        sentinel;
        preauth_q = Queue.create ();
        preauth_dropped = 0;
        injections_blocked = 0;
        pump_scheduled = false;
        prng_pump = Prng.Splitmix.create (Int64.logxor seed 0x70726561757468L);
        watches = Hashtbl.create 8;
        pending_close = Hashtbl.create 8;
      }
    in
    attach_leader t;
    List.iter
      (fun (name, password) ->
        let m = Member.create ~self:name ~leader ~password ~rng in
        Hashtbl.replace members name m;
        attach_member t m)
      directory;
    (match retry with
    | Some cfg -> Netsim.Sim.every sim ~period:cfg.scan_period (leader_scan t cfg)
    | None -> ());
    (match recovery with
    | Some rc ->
        Netsim.Sim.every sim ~period:rc.digest_period (fun () ->
            broadcast_digests t);
        List.iter
          (fun (name, _) -> ae_watch t rc name ~last_seen:0 ~silent_for:0L)
          directory
    | None -> ());
    t

  let sim t = t.sim
  let net t = t.net
  let retry_stats t = t.rstats
  let recovery_stats t = t.recstats
  let journal_bytes t = Option.map Journal.contents (Node.journal t.node)
  let epoch_vault t = Node.vault t.node

  let join t who =
    let m = member t who in
    send_frames t.net ~src:who (Member.join m);
    match t.retry with
    | Some cfg ->
        watch_member t cfg who ~delay:cfg.handshake_initial ~keyless_ticks:0
    | None -> ()

  let leave t who =
    let m = member t who in
    send_frames t.net ~src:who (Member.leave m)

  let send_app t who body =
    let m = member t who in
    send_frames t.net ~src:who (Member.send_app m body)

  let dispatch_leader t frames =
    send_frames t.net ~src:(Leader.self (leader t)) frames

  let rekey t = dispatch_leader t (Leader.rekey (leader t))
  let expel t who = dispatch_leader t (Leader.expel (leader t) who)

  (* --- store-and-forward --- *)

  let mark_offline t who = Leader.mark_offline (leader t) who
  let mark_online t who = dispatch_leader t (Leader.mark_online (leader t) who)
  let offline_members t = Leader.offline_members (leader t)
  let delivery t = Leader.delivery (leader t)

  let queue_depth t who =
    match delivery t with Some d -> Delivery.depth d ~member:who | None -> 0

  let total_queue_depth t =
    match delivery t with Some d -> Delivery.total_depth d | None -> 0

  let delivery_stats t =
    let c = (Node.totals t.node).Node.delivery in
    {
      Netsim.Stats.queued = c.Delivery.queued;
      drained = c.Delivery.drained;
      deduped =
        Hashtbl.fold
          (fun _ m acc -> acc + Member.deliveries_deduped m)
          t.members 0;
      resealed = c.Delivery.resealed;
      rejected_stale = c.Delivery.rejected_stale;
      delivered_stale = c.Delivery.delivered_stale;
      queue_bytes_hwm = c.Delivery.queue_bytes_hwm;
    }

  let delivery_counters t = Netsim.Stats.delivery_named (delivery_stats t)

  (* --- leader crash and restart --- *)

  let crash_leader t =
    if not (leader_down t) then begin
      t.recstats.leader_crashes <- t.recstats.leader_crashes + 1;
      Node.crash t.node;
      (* The pre-auth queue is process memory; a crash loses it. *)
      Queue.clear t.preauth_q;
      Netsim.Network.unregister t.net (Leader.self (leader t))
    end

  (* Retransmit outstanding recovery challenges every scan until they
     are answered or [challenge_timeout] has passed, then give up on
     the stragglers — the cold path. *)
  let rec recovery_scan t rc ~started ~period =
    Netsim.Sim.schedule t.sim ~delay:period (fun () ->
        if not (leader_down t) then begin
          let l = leader t in
          let now = Netsim.Sim.now t.sim in
          let pending = Leader.recovering l in
          if pending <> [] then begin
            let expired =
              Netsim.Vtime.(rc.challenge_timeout <= Int64.sub now started)
            in
            List.iter
              (fun who ->
                if expired then begin
                  if Leader.abort_recovery l who then
                    t.recstats.challenges_failed <-
                      t.recstats.challenges_failed + 1
                end
                else begin
                  t.recstats.challenge_retransmits <-
                    t.recstats.challenge_retransmits + 1;
                  send_frames t.net ~src:(Leader.self l)
                    (Leader.retransmit l who)
                end)
              pending;
            if not expired then recovery_scan t rc ~started ~period
          end
        end)

  (* Re-broadcast the cold-restart beacons to members that have not
     rejoined yet, every [period], until [challenge_timeout] has
     passed. A member that already challenged re-sends its stored
     challenge on the duplicate (same nonce), and the leader re-acks a
     matching challenge, so every lost frame in the 3-message exchange
     is covered. Stops early if this leader incarnation is replaced. *)
  let rec beacon_scan t rc ~incarnation ~beacons ~started ~period =
    Netsim.Sim.schedule t.sim ~delay:period (fun () ->
        if
          (not (leader_down t))
          && leader t == incarnation
          && Netsim.Vtime.(
               Int64.sub (Netsim.Sim.now t.sim) started < rc.challenge_timeout)
        then begin
          let missing =
            List.filter
              (fun (f : Wire.Frame.t) ->
                match Leader.session incarnation f.Wire.Frame.recipient with
                | Leader.Not_connected -> true
                | _ -> false)
              beacons
          in
          if missing <> [] then begin
            t.recstats.cold_beacons_sent <-
              t.recstats.cold_beacons_sent + List.length missing;
            send_frames t.net ~src:(Leader.self incarnation) missing;
            beacon_scan t rc ~incarnation ~beacons ~started ~period
          end
        end)

  let restart_leader ?(warm = true) ?journal_bytes t =
    match t.recovery with
    | None ->
        invalid_arg "Driver.Improved.restart_leader: created without ~recovery"
    | Some rc ->
        let r = Node.restart ?journal:journal_bytes ~warm t.node in
        if r.Node.crash_image then
          t.recstats.crash_images <- t.recstats.crash_images + 1;
        attach_leader t;
        let l = leader t in
        let lname = Leader.self l in
        let now = Netsim.Sim.now t.sim in
        if warm then begin
          t.recstats.warm_restarts <- t.recstats.warm_restarts + 1;
          t.recstats.challenges_sent <-
            t.recstats.challenges_sent + List.length r.Node.frames;
          send_frames t.net ~src:lname r.Node.frames;
          let period =
            match t.retry with
            | Some cfg -> cfg.scan_period
            | None -> Netsim.Vtime.of_ms 200
          in
          recovery_scan t rc ~started:now ~period
        end
        else begin
          t.recstats.cold_restarts <- t.recstats.cold_restarts + 1;
          if rc.beacon_on_cold then begin
            t.recstats.cold_beacons_sent <-
              t.recstats.cold_beacons_sent + List.length r.Node.frames;
            send_frames t.net ~src:lname r.Node.frames;
            beacon_scan t rc ~incarnation:l ~beacons:r.Node.frames ~started:now
              ~period:rc.digest_period
          end
        end;
        r.Node.status

  let schedule_leader_crash ?restart_after ?(warm = true) ?journal_bytes t ~at
      () =
    let delay =
      let now = Netsim.Sim.now t.sim in
      if Netsim.Vtime.(now < at) then Int64.sub at now else 0L
    in
    Netsim.Sim.schedule t.sim ~delay (fun () ->
        crash_leader t;
        match restart_after with
        | Some d ->
            Netsim.Sim.schedule t.sim ~delay:d (fun () ->
                ignore (restart_leader ~warm ?journal_bytes t))
        | None -> ())

  let start_periodic_rekey t ~period ?until () =
    Netsim.Sim.every_handle t.sim ~period ?until (fun () -> rekey t)

  let run ?until t = Netsim.Sim.run ?until t.sim

  let prefix_ok t who =
    (* §5.4 is a per-session property: [snd_A] is reset when the leader
       closes the session, so the comparison is only meaningful while
       the leader still runs a session for [who]. An expelled member
       keeps its old [rcv_A] but the session it belonged to is gone. *)
    match Leader.session (leader t) who with
    | Leader.Not_connected | Leader.Waiting_for_key_ack _
    | Leader.Recovering _ ->
        (* A recovering session's [snd_A] died with the crashed leader;
           the ledger restarts on both sides once the challenge is
           answered. *)
        true
    | Leader.Connected _ | Leader.Waiting_for_ack _ ->
        let m = member t who in
        let rcv = Member.accepted_admin m in
        let snd = Leader.sent_admin (leader t) who in
        let rec is_prefix xs ys =
          match (xs, ys) with
          | [], _ -> true
          | _, [] -> false
          | x :: xs', y :: ys' -> Wire.Admin.equal x y && is_prefix xs' ys'
        in
        is_prefix rcv snd

  let all_prefix_ok t =
    Hashtbl.fold (fun who _ acc -> acc && prefix_ok t who) t.members true

  (* The chaos suite's convergence predicate: every member is in
     session, everyone (leader included) agrees on the group-key
     epoch, and §5.4 ordering holds for every live session. *)
  let converged t =
    match Leader.group_key (leader t) with
    | None -> false
    | Some gk ->
        Hashtbl.fold
          (fun _ m acc ->
            acc
            && Member.is_connected m
            &&
            match Member.group_key m with
            | Some gk' -> gk'.Types.epoch = gk.Types.epoch
            | None -> false)
          t.members true
        && all_prefix_ok t

  (* Anti-entropy's goal state: converged AND every member's
     membership view equals the leader's. *)
  let view_converged t =
    converged t
    &&
    let lview = Leader.members (leader t) in
    Hashtbl.fold
      (fun _ m acc -> acc && Member.group_view m = lview)
      t.members true

  let retry_counters t =
    [
      ("handshake_retransmits", t.rstats.handshake_retransmits);
      ("keydist_retransmits", t.rstats.keydist_retransmits);
      ("admin_retransmits", t.rstats.admin_retransmits);
      ("half_open_gcs", t.rstats.half_open_gcs);
      ("session_resets", t.rstats.session_resets);
    ]

  let sessions_recovered t = (Node.totals t.node).Node.recoveries

  let recovery_counters t =
    let n = Node.totals t.node in
    [
      ("leader_crashes", t.recstats.leader_crashes);
      ("warm_restarts", t.recstats.warm_restarts);
      ("cold_restarts", t.recstats.cold_restarts);
      ("challenges_sent", t.recstats.challenges_sent);
      ("challenge_retransmits", t.recstats.challenge_retransmits);
      ("challenges_failed", t.recstats.challenges_failed);
      ("sessions_recovered", n.Node.recoveries);
      ("digests_broadcast", t.recstats.digests_broadcast);
      ( "divergences_detected",
        Hashtbl.fold (fun _ m acc -> acc + Member.view_divergences m) t.members 0
      );
      ("resyncs_served", n.Node.resyncs_served);
      ("probes_sent", t.recstats.probes_sent);
      ("cold_reauths", t.recstats.cold_reauths);
      ("cold_beacons_sent", t.recstats.cold_beacons_sent);
      ("beacon_reauths", t.recstats.beacon_reauths);
    ]

  let fault_counters t =
    match Node.fault t.node with
    | Some f -> Store.Fault.counters f
    | None -> Store.Fault.empty_counters ()

  let storage_counters t =
    let f = fault_counters t in
    [
      ("torn_writes", f.Store.Fault.torn_writes);
      ("short_writes", f.Store.Fault.short_writes);
      ("dropped_fsyncs", f.Store.Fault.dropped_fsyncs);
      ("eio_injected", f.Store.Fault.eio_injected);
      ("eio_retries", (Node.totals t.node).Node.eio_retries);
      ("crash_images_replayed", t.recstats.crash_images);
    ]

  (* --- resource pressure and the degraded-mode ladder --- *)

  let leader_mode t = Leader.mode (leader t)
  let durability_armed t = Leader.durability_armed (leader t)
  let rearms t = (Node.totals t.node).Node.rearms

  let with_fault t f =
    match Node.fault t.node with Some fault -> f fault | None -> ()

  let set_space_budget t b = with_fault t (fun f -> Store.Fault.set_space_budget f b)
  let heal_stall t = with_fault t Store.Fault.heal_stall
  let trigger_stall t = with_fault t Store.Fault.trigger_stall

  let disk_bytes_used t =
    match Node.fault t.node with Some f -> Store.Fault.bytes_used f | None -> 0

  let resource_counters ?(repl_snapshots = 0) t =
    let f = fault_counters t and n = Node.totals t.node in
    [
      ("degraded_entries", n.Node.degraded_entries);
      ("records_shed", n.Node.delivery.Delivery.records_shed);
      ("enospc_hits", f.Store.Fault.enospc_hits);
      ("fsync_stall_ms_max", f.Store.Fault.fsync_stall_ms_max);
      ("repl_lag_snapshots", repl_snapshots);
    ]

  (* --- intrusion containment --- *)

  let sentinel t = t.sentinel

  (* The pre-auth queue and the wire door are the driver's, so it
     fills in their counts. *)
  let sentinel_counters t =
    let c =
      match t.sentinel with
      | Some sn -> Sentinel.counters sn
      | None -> Sentinel.fresh_counters ()
    in
    Sentinel.named { c with Sentinel.preauth_queue_dropped = t.preauth_dropped }
    @ [ ("injections_blocked", t.injections_blocked) ]
end

module Legacy = struct
  type t = {
    sim : Netsim.Sim.t;
    net : Netsim.Network.t;
    leader : Legacy_leader.t;
    members : (Types.agent, Legacy_member.t) Hashtbl.t;
  }

  let create ?(seed = 42L) ?latency_us ?policy ~leader ~directory () =
    let sim = Netsim.Sim.create ~seed () in
    let net = Netsim.Network.create ~sim ?latency_us () in
    let rng = Netsim.Sim.rng sim in
    let l = Legacy_leader.create ~self:leader ~rng ~directory ?policy () in
    let members = Hashtbl.create 8 in
    Netsim.Network.register net leader (fun bytes ->
        send_frames net ~src:leader (Legacy_leader.receive l bytes));
    List.iter
      (fun (name, password) ->
        let m = Legacy_member.create ~self:name ~leader ~password ~rng in
        Hashtbl.replace members name m;
        Netsim.Network.register net name (fun bytes ->
            send_frames net ~src:name (Legacy_member.receive m bytes)))
      directory;
    { sim; net; leader = l; members }

  let sim t = t.sim
  let net t = t.net
  let leader t = t.leader

  let member t who =
    match Hashtbl.find_opt t.members who with
    | Some m -> m
    | None -> raise Not_found

  let join t who =
    send_frames t.net ~src:who (Legacy_member.join (member t who))

  let leave t who =
    send_frames t.net ~src:who (Legacy_member.leave (member t who))

  let send_app t who body =
    send_frames t.net ~src:who (Legacy_member.send_app (member t who) body)

  let rekey t =
    send_frames t.net ~src:(Legacy_leader.self t.leader)
      (Legacy_leader.rekey t.leader)

  let run ?until t = Netsim.Sim.run ?until t.sim
end
