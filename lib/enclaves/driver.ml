module F = Wire.Frame

let send_frames net ~src frames =
  List.iter
    (fun (frame : F.t) ->
      Netsim.Network.send net ~src ~dst:frame.F.recipient (F.encode frame))
    frames

module Improved = struct
  type retry_config = unit

  let default_retry = ()

  let leader_timers ~retry =
    {
      Leader.period = Netsim.Vtime.of_ms 200;
      max_interval = Netsim.Vtime.of_s 4;
      deadline = Netsim.Vtime.of_s 3;
      expel = false;
      retry;
    }

  type retry_stats = {
    handshake_retransmits : int;
    keydist_retransmits : int;
    admin_retransmits : int;
    half_open_gcs : int;
    session_resets : int;
  }

  (* Pre-auth flood control: the unauthenticated handshake path is the
     one surface a peer can hit without any key material, so it gets
     its own bounded service queue. [AuthInitReq] frames are not
     handed to the leader on arrival: they wait in a FIFO of at most
     [preauth_capacity] frames (tail drop beyond that) and are served
     [preauth_burst] at a time every [preauth_period] (+-25% jitter),
     so a flood pays in queueing delay and overflow instead of leader
     work — and cannot phase-lock onto the service clock. With an
     intrusion sentinel configured, {!Sentinel.admit_preauth} runs at
     the queue door: throttled, capped and quarantined claimants never
     occupy a slot. *)
  type preauth_config = unit

  let default_preauth = ()
  let preauth_capacity = 32
  let preauth_period = Netsim.Vtime.of_ms 50
  let preauth_burst = 4

  type recovery_config = {
    digest_period : Netsim.Vtime.t;
    probe_after : Netsim.Vtime.t;
    reset_after : Netsim.Vtime.t;
    beacon_on_cold : bool;
  }

  let default_recovery =
    {
      digest_period = Netsim.Vtime.of_s 1;
      probe_after = Netsim.Vtime.of_s 4;
      reset_after = Netsim.Vtime.of_s 10;
      beacon_on_cold = true;
    }

  type recovery_stats = {
    leader_crashes : int;
    warm_restarts : int;
    cold_restarts : int;
    challenges_sent : int;
    challenge_retransmits : int;
    challenges_failed : int;
    digests_broadcast : int;
    probes_sent : int;
    cold_reauths : int;
    cold_beacons_sent : int;
    beacon_reauths : int;
    crash_images : int;
  }

  type t = {
    sim : Netsim.Sim.t;
    net : Netsim.Network.t;
    node : Node.t;  (* the leader process, across incarnations *)
    members : (Types.agent, Member.t) Hashtbl.t;
    directory : (Types.agent * string) list;
    retry : bool;
    mutable ticking : Netsim.Sim.handle option;  (* the leader's tick *)
    alarms : (Types.agent, Netsim.Sim.handle) Hashtbl.t;
        (* Each member's pending handshake alarm. *)
    recovery : recovery_config option;
    (* What the driver itself did to the leader process. *)
    mutable crashes : int;
    mutable warm_restarts : int;
    mutable cold_restarts : int;
    mutable challenges_sent : int;
    mutable beacons_sent : int;
    mutable crash_images : int;
    jrng : Prng.Splitmix.t;  (* jitter; split off the root stream *)
    preauth : bool;
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
  let rec schedule_pump t =
    if not t.pump_scheduled then begin
      t.pump_scheduled <- true;
      let period_f = Int64.to_float preauth_period in
      let displace =
        Int64.of_float
          (period_f *. 0.25
          *. ((Prng.Splitmix.next_float t.prng_pump *. 2.0) -. 1.0))
      in
      let delay = Int64.max 1L (Int64.add preauth_period displace) in
      Netsim.Sim.schedule t.sim ~delay (fun () ->
          t.pump_scheduled <- false;
          if not (leader_down t) then begin
            let served = ref 0 in
            while !served < preauth_burst && not (Queue.is_empty t.preauth_q) do
              incr served;
              let bytes, via = Queue.pop t.preauth_q in
              deliver_to_leader t ?via bytes
            done;
            send_frames t.net ~src:(Leader.self (leader t))
              (Leader.containment_sweep (leader t));
            if not (Queue.is_empty t.preauth_q) then schedule_pump t
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
  let effective_capacity t =
    if Leader.mode (leader t) = Leader.Healthy then preauth_capacity
    else max 1 (preauth_capacity / 4)

  let gate_preauth t ?via bytes frame =
    if
      Leader.mode (leader t) <> Leader.Healthy
      && not (List.mem_assoc frame.F.sender t.directory)
    then t.preauth_dropped <- t.preauth_dropped + 1
    else if admit_preauth t ?via frame then
      if not t.preauth then deliver_to_leader t ?via bytes
      else if Queue.length t.preauth_q >= effective_capacity t then
        t.preauth_dropped <- t.preauth_dropped + 1
      else begin
        Queue.push (bytes, via) t.preauth_q;
        schedule_pump t
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
            | false, None -> deliver_to_leader t ?via bytes
            | _ -> (
                match F.decode bytes with
                | Ok ({ F.label = F.Auth_init_req; _ } as frame) ->
                    gate_preauth t ?via bytes frame
                | Ok _ | Error _ -> deliver_to_leader t ?via bytes)
        end)

  let member t who =
    match Hashtbl.find_opt t.members who with
    | Some m -> m
    | None -> raise Not_found

  (* After anything that may have armed a member's handshake watchdog
     (a join, a beacon reset, an alarm), schedule the alarm it asked
     for; it replaces the pending one. *)
  let rec arm t m =
    if t.retry then
      match Member.next_wake m ~rng:t.jrng with
      | None -> ()
      | Some delay ->
          let who = Member.self m in
          Option.iter Netsim.Sim.cancel (Hashtbl.find_opt t.alarms who);
          Hashtbl.replace t.alarms who
            (Netsim.Sim.schedule_handle t.sim ~delay (fun () ->
                 alarm t m Member.Handshake))

  and alarm t m kind =
    send_frames t.net ~src:(Member.self m) (Member.tick m kind);
    arm t m

  let attach_member t m =
    let who = Member.self m in
    Netsim.Network.register t.net who (fun bytes ->
        send_frames t.net ~src:who (Member.receive m bytes);
        arm t m)

  (* The leader's timers start with each incarnation: one tick at once,
     so the frames it is born with (recovery challenges, cold beacons)
     are watched from its first instant, then one tick every period.
     Without [retry] the tick watches only the recovery layer's
     frames; with neither layer the leader runs no timers. *)
  let start_ticks t =
    if t.retry || t.recovery <> None then begin
      Option.iter Netsim.Sim.cancel t.ticking;
      let timers = leader_timers ~retry:t.retry in
      let tick () =
        if not (leader_down t) then
          send_frames t.net ~src:(Leader.self (leader t))
            (Leader.tick (leader t) ~now:(Netsim.Sim.now t.sim) timers)
      in
      tick ();
      let period = timers.Leader.period in
      t.ticking <- Some (Netsim.Sim.every_handle t.sim ~period tick)
    end

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
        retry = retry <> None;
        ticking = None;
        alarms = Hashtbl.create 8;
        recovery;
        crashes = 0;
        warm_restarts = 0;
        cold_restarts = 0;
        challenges_sent = 0;
        beacons_sent = 0;
        crash_images = 0;
        jrng = Prng.Splitmix.split rng;
        preauth = preauth <> None;
        sentinel;
        preauth_q = Queue.create ();
        preauth_dropped = 0;
        injections_blocked = 0;
        pump_scheduled = false;
        prng_pump = Prng.Splitmix.create (Int64.logxor seed 0x70726561757468L);
      }
    in
    attach_leader t;
    List.iter
      (fun (name, password) ->
        let m = Member.create ~self:name ~leader ~password ~rng in
        Hashtbl.replace members name m;
        attach_member t m)
      directory;
    start_ticks t;
    (match recovery with
    | Some rc ->
        Netsim.Sim.every sim ~period:rc.digest_period (fun () ->
            if not (leader_down t) then
              send_frames net ~src:leader
                (Leader.digest_beacon (Node.leader node)));
        let silence =
          Member.Silence
            {
              beacon_period = rc.digest_period;
              probe_after = rc.probe_after;
              reset_after = rc.reset_after;
            }
        in
        List.iter
          (fun (name, _) ->
            let m = Hashtbl.find members name in
            Netsim.Sim.every sim ~period:rc.digest_period (fun () ->
                alarm t m silence))
          directory
    | None -> ());
    t

  let sim t = t.sim
  let net t = t.net
  let sum_members t f =
    Hashtbl.fold (fun _ m acc -> acc + f (Member.counters m)) t.members 0

  let retry_stats t =
    let l = (Node.totals t.node).Node.leader in
    {
      handshake_retransmits = sum_members t (fun c -> c.handshake_retransmits);
      keydist_retransmits = l.Leader.keydist_retransmits;
      admin_retransmits = l.Leader.admin_retransmits;
      half_open_gcs = l.Leader.half_open_gcs;
      session_resets = sum_members t (fun c -> c.session_resets);
    }

  let recovery_stats t =
    let l = (Node.totals t.node).Node.leader in
    {
      leader_crashes = t.crashes;
      warm_restarts = t.warm_restarts;
      cold_restarts = t.cold_restarts;
      challenges_sent = t.challenges_sent;
      challenge_retransmits = l.Leader.challenge_retransmits;
      challenges_failed = l.Leader.challenges_failed;
      digests_broadcast = l.Leader.digests_broadcast;
      cold_beacons_sent = t.beacons_sent + l.Leader.beacon_retransmits;
      crash_images = t.crash_images;
      probes_sent = sum_members t (fun c -> c.probes_sent);
      cold_reauths = sum_members t (fun c -> c.cold_reauths);
      beacon_reauths = sum_members t (fun c -> c.beacon_reauths);
    }
  let journal_bytes t = Option.map Journal.contents (Node.journal t.node)
  let epoch_vault t = Node.vault t.node

  let join t who =
    let m = member t who in
    send_frames t.net ~src:who (Member.join m);
    arm t m

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
      t.crashes <- t.crashes + 1;
      Node.crash t.node;
      (* The pre-auth queue is process memory; a crash loses it. *)
      Queue.clear t.preauth_q;
      Netsim.Network.unregister t.net (Leader.self (leader t))
    end

  let restart_leader ?(warm = true) ?journal_bytes t =
    match t.recovery with
    | None ->
        invalid_arg "Driver.Improved.restart_leader: created without ~recovery"
    | Some rc ->
        let r =
          Node.restart ?journal:journal_bytes ~beacons:rc.beacon_on_cold ~warm
            t.node
        in
        let n = List.length r.Node.frames in
        if r.Node.crash_image then t.crash_images <- t.crash_images + 1;
        if warm then begin
          t.warm_restarts <- t.warm_restarts + 1;
          t.challenges_sent <- t.challenges_sent + n
        end
        else begin
          t.cold_restarts <- t.cold_restarts + 1;
          t.beacons_sent <- t.beacons_sent + n
        end;
        attach_leader t;
        send_frames t.net ~src:(Leader.self (leader t)) r.Node.frames;
        start_ticks t;
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
    let r = retry_stats t in
    [
      ("handshake_retransmits", r.handshake_retransmits);
      ("keydist_retransmits", r.keydist_retransmits);
      ("admin_retransmits", r.admin_retransmits);
      ("half_open_gcs", r.half_open_gcs);
      ("session_resets", r.session_resets);
    ]

  let sessions_recovered t = (Node.totals t.node).Node.leader.Leader.recoveries

  let recovery_counters t =
    let r = recovery_stats t and l = (Node.totals t.node).Node.leader in
    [
      ("leader_crashes", r.leader_crashes);
      ("warm_restarts", r.warm_restarts);
      ("cold_restarts", r.cold_restarts);
      ("challenges_sent", r.challenges_sent);
      ("challenge_retransmits", r.challenge_retransmits);
      ("challenges_failed", r.challenges_failed);
      ("sessions_recovered", l.Leader.recoveries);
      ("digests_broadcast", r.digests_broadcast);
      ("divergences_detected", sum_members t (fun c -> c.Member.divergences));
      ("resyncs_served", l.Leader.resyncs_served);
      ("probes_sent", r.probes_sent);
      ("cold_reauths", r.cold_reauths);
      ("cold_beacons_sent", r.cold_beacons_sent);
      ("beacon_reauths", r.beacon_reauths);
    ]

  let fault t = Node.fault t.node

  let fault_counters t =
    match fault t with
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
      ("crash_images_replayed", t.crash_images);
    ]

  (* --- resource pressure and the degraded-mode ladder --- *)

  let rearms t = (Node.totals t.node).Node.leader.Leader.rearms

  let resource_counters t =
    let f = fault_counters t and n = Node.totals t.node in
    [
      ("degraded_entries", n.Node.leader.Leader.degraded_entries);
      ("records_shed", n.Node.delivery.Delivery.records_shed);
      ("enospc_hits", f.Store.Fault.enospc_hits);
      ("fsync_stall_ms_max", f.Store.Fault.fsync_stall_ms_max);
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
