module F = Wire.Frame
module Key = Sym_crypto.Key

type config = {
  heartbeat_period : Netsim.Vtime.t;
  failure_timeout : Netsim.Vtime.t;
  check_period : Netsim.Vtime.t;
  failback_after : Netsim.Vtime.t;
  warm_failover : bool;
}

let default_config =
  {
    heartbeat_period = Netsim.Vtime.of_ms 300;
    failure_timeout = Netsim.Vtime.of_ms 1000;
    check_period = Netsim.Vtime.of_ms 200;
    failback_after = Netsim.Vtime.of_ms 1500;
    warm_failover = true;
  }

type manager = {
  name : Types.agent;
  idx : int;  (* position in the fixed succession *)
  disk : Store.Mem.t;  (* this manager's own simulated disk *)
  node : Node.t;
      (* The manager's leader process: serving (journalling, queueing)
         iff primary. Its sentinel outlives promotion and demotion; the
         primary's instance ships snapshots down the replication
         stream, a promoting backup merges the replicated snapshot into
         its own. *)
  mutable source : Replication.Source.t option;  (* Some iff primary *)
  mutable replica : Replication.Replica.t option;  (* Some iff backup *)
}

let leader_of mgr = Node.leader mgr.node
let crashed mgr = Node.down mgr.node
let sentinel_of mgr = Leader.sentinel (leader_of mgr)

type t = {
  sim : Netsim.Sim.t;
  net : Netsim.Network.t;
  config : config;
  repl_key : Key.t;
  counters : Replication.counters;
  managers : manager array;
  members : (Types.agent, Member.t) Hashtbl.t;
      (* one automaton per member for the whole run *)
}

let sim t = t.sim
let net t = t.net

(* Replication terms are generation-encoded so that no two promotions
   can ever mint the same term: [term = g*n + (n-1-idx)] where [n] is
   the manager count, [g] a promotion generation, and [idx] the
   manager's succession position. A promoting manager observes term
   [T] (its replica's last adopted term) and claims the next
   generation at its own rank — so two successors promoting
   concurrently across a partition get distinct terms, and within one
   generation the {e earlier} manager in the succession mints the
   {e higher} term and wins the tie. The naive [T + 1] this replaces
   collided exactly there. *)
let term_of ~n ~generation ~idx = (generation * n) + (n - 1 - idx)

let promotion_term ~n ~idx ~seen = term_of ~n ~generation:((seen / n) + 1) ~idx

(* The manager currently sourcing the replication stream at the
   highest term — during the window between a crash and the successor's
   promotion (when no source is live), the first non-crashed manager
   in the succession, and [None] when every manager is down: callers
   must treat that as "no service", not silently target a corpse. A
   partitioned old primary still sourcing its dead term loses this
   comparison the moment the successor promotes, so members fail back
   to the real group, never to a zombie. *)
let primary t =
  let best = ref None in
  Array.iter
    (fun mgr ->
      if not (crashed mgr) then
        match mgr.source with
        | Some s -> (
            let term = Replication.Source.term s in
            match !best with
            | Some (bt, _) when bt >= term -> ()
            | _ -> best := Some (term, mgr.name))
        | None -> ())
    t.managers;
  match !best with
  | Some (_, name) -> Some name
  | None ->
      let n = Array.length t.managers in
      let rec first i =
        if i >= n then None
        else if not (crashed t.managers.(i)) then Some t.managers.(i).name
        else first (i + 1)
      in
      first 0

(* Next non-crashed manager strictly after [after] in the fixed
   succession, wrapping all the way around — back to [after] itself
   when it is the only live manager, [None] when none are live. *)
let succession_next t after =
  let n = Array.length t.managers in
  let idx = ref 0 in
  Array.iteri (fun i mgr -> if mgr.name = after then idx := i) t.managers;
  let rec find k =
    if k > n then None
    else
      let mgr = t.managers.((!idx + k) mod n) in
      if not (crashed mgr) then Some mgr.name else find (k + 1)
  in
  find 1

let send_frames t ~src frames =
  List.iter
    (fun (frame : F.t) ->
      Netsim.Network.send t.net ~src ~dst:frame.F.recipient (F.encode frame))
    frames

let attach_member t m =
  let who = Member.self m in
  Netsim.Network.register t.net who (fun bytes ->
      send_frames t ~src:who (Member.receive m bytes))

(* Manager frame routing: replication frames go to the replication
   plane, everything else to the leader automaton. Undecodable bytes
   also go to the leader so its reject accounting stays authoritative. *)
let attach_manager t mgr =
  Netsim.Network.register t.net mgr.name (fun bytes ->
      if not (crashed mgr) then begin
        let to_leader () =
          let via = Netsim.Network.delivering_via t.net in
          let replies = Leader.receive (leader_of mgr) ?via bytes in
          send_frames t ~src:mgr.name replies
        in
        match F.decode bytes with
        | Error _ -> to_leader ()
        | Ok frame -> (
            match frame.F.label with
            | F.Repl_record -> (
                match mgr.replica with
                | Some r ->
                    send_frames t ~src:mgr.name
                      (Replication.Replica.handle_frame r frame)
                | None -> (
                    match mgr.source with
                    | Some s ->
                        (* A record reaching a sourcing manager is the
                           reconciliation plane at work: either a
                           zombie peer's dead stream (answered with a
                           demotion signal) or a successor's
                           higher-term stream reaching us after a
                           heal — in which case [on_superseded] just
                           demoted us, and the frame that proved it
                           seeds the fresh replica below. *)
                        Replication.Source.handle_peer_record s frame;
                        (match mgr.replica with
                        | Some r ->
                            send_frames t ~src:mgr.name
                              (Replication.Replica.handle_frame r frame)
                        | None -> ())
                    | None -> ()))
            | F.Repl_ack | F.Repl_fetch | F.Repl_stale -> (
                match mgr.source with
                | Some s -> Replication.Source.handle_frame s frame
                | None ->
                    (* A backup has nothing to demote; stray signals
                       are just dropped. *)
                    ())
            | _ -> to_leader ())
      end)

(* Each member's manager watch goes off every check period. The member
   decides; the harness supplies what only it knows — the current
   primary and the next live manager after the member's own. *)
let start_watch t m =
  let c = t.config in
  Netsim.Sim.every t.sim ~period:c.check_period (fun () ->
      let alarm =
        Member.Manager
          {
            period = c.check_period;
            timeout = c.failure_timeout;
            failback_after = c.failback_after;
            primary = primary t;
            next = succession_next t (Member.leader m);
          }
      in
      send_frames t ~src:(Member.self m) (Member.tick m alarm))

let start_heartbeat t mgr =
  Netsim.Sim.every t.sim ~period:t.config.heartbeat_period (fun () ->
      if not (crashed mgr) then
        send_frames t ~src:mgr.name
          (Leader.broadcast_admin (leader_of mgr) (Wire.Admin.Notice "hb")))

(* Every manager's leader ticks each check period, re-sending every
   period (the interval cap stops the doubling), and gives up on an
   exchange still open at twice the failure timeout: by then the member
   has probed again or failed over. *)
let start_tick t mgr =
  let timers =
    {
      Leader.period = t.config.check_period;
      max_interval = t.config.check_period;
      deadline = Int64.mul 2L t.config.failure_timeout;
      expel = true;
      retry = true;
    }
  in
  Netsim.Sim.every t.sim ~period:t.config.check_period (fun () ->
      if not (crashed mgr) then
        send_frames t ~src:mgr.name
          (Leader.tick (leader_of mgr) ~now:(Netsim.Sim.now t.sim) timers))

(* --- the replication plane --- *)

let live_backups t mgr =
  Array.to_list t.managers
  |> List.filter_map (fun m ->
         if m.name <> mgr.name && not (crashed m) then Some m.name else None)

let make_replica ?catching_up t mgr ~primary_name ~term =
  mgr.replica <-
    Some
      (Replication.Replica.create ~self:mgr.name ~primary:primary_name
         ~key:t.repl_key ~rng:(Netsim.Sim.rng t.sim)
         ~disk:(Store.Mem.handle mgr.disk) ~term ?catching_up
         ~counters:t.counters ())

(* Demotion: authentic evidence of a strictly higher term arrived at a
   sourcing manager (the [on_superseded] callback). Stop sourcing,
   discard the journal's divergent suffix — everything past the last
   byte some backup acknowledged under our common term; those
   unwitnessed records (typically partition-side expulsions and epoch
   bumps) never reached the group that moved on — and rejoin the live
   source as an empty catching-up backup. The replica is seeded at the
   superseding term so replays of our own dead stream cannot re-adopt,
   and cannot promote until the new term's snapshot has landed. Members
   need not be told: anyone we still believed in was challenged over to
   the successor long ago, and our sessions die with the demoted leader
   automaton. *)
let demote t mgr ~term ~primary_name =
  match mgr.source with
  | None -> ()
  | Some s ->
      t.counters.demotions <- t.counters.demotions + 1;
      Replication.Source.detach s;
      mgr.source <- None;
      (* Stop shipping suspicion: a demoted manager has no stream. *)
      (match sentinel_of mgr with
      | Some sn -> Sentinel.set_ship sn (fun _ -> ())
      | None -> ());
      Node.standby mgr.node
        ~journal_prefix:(Replication.Source.acked_prefix s);
      make_replica ~catching_up:true t mgr ~primary_name ~term

let make_source t mgr ~term =
  let journal = Option.get (Node.journal mgr.node) in
  mgr.replica <- None;
  mgr.source <-
    Some
      (Replication.Source.create ~self:mgr.name ~backups:(live_backups t mgr)
         ~term ~key:t.repl_key ~rng:(Netsim.Sim.rng t.sim)
         ~send:(fun f -> send_frames t ~src:mgr.name [ f ])
         ~journal
         ~on_superseded:(fun ~term ~primary ->
           demote t mgr ~term ~primary_name:primary)
         ~counters:t.counters ())

(* Hook the primary's delivery layer into its replication source, so
   every durable queue mutation ships to the backups — and ship the
   current images once so the new term's stream covers backlogs that
   predate it. *)
let wire_delivery mgr =
  match (Leader.delivery (leader_of mgr), mgr.source) with
  | Some d, Some s ->
      Delivery.set_ship d
        (Some
           (fun ~file image ->
             Replication.Source.ship_queue_image s ~file image));
      List.iter
        (fun (file, image) -> Replication.Source.ship_queue_image s ~file image)
        (Delivery.files d)
  | _ -> ()

(* Hook the primary's sentinel into its replication source, so every
   suspicion escalation ships to the backups — and ship the current
   snapshot once so the new term's stream covers suspicion accrued
   before this manager started sourcing. *)
let wire_sentinel mgr =
  match (sentinel_of mgr, mgr.source) with
  | Some sn, Some s ->
      Sentinel.set_ship sn (fun blob ->
          Replication.Source.ship_suspicion s blob);
      Replication.Source.ship_suspicion s (Sentinel.export sn)
  | _ -> ()

let start_repl_heartbeat t mgr =
  Netsim.Sim.every t.sim ~period:t.config.heartbeat_period (fun () ->
      if not (crashed mgr) then
        match mgr.source with
        | Some s -> Replication.Source.heartbeat s
        | None -> ())

(* Promote a backup whose replication channel has gone silent. The
   replica bytes are replayed exactly like a local journal surviving a
   crash: a usable prefix yields a warm leader that challenges every
   replicated session under its [K_a] (members keep their keys and
   redirect to us), an unusable one yields a cold leader that beacons.
   Either way this manager becomes the stream's source at the next
   generation's term at its own rank (see {!term_of} — unique even
   under concurrent promotions), so the remaining backups adopt the
   succession from one frame. *)
let promote t mgr =
  match mgr.replica with
  | None -> ()
  | Some r ->
      let bytes = Replication.Replica.contents r in
      let term =
        promotion_term ~n:(Array.length t.managers) ~idx:mgr.idx
          ~seen:(Replication.Replica.term r)
      in
      (* Merge the replicated suspicion snapshot before the successor
         serves anyone: levels ratchet, so a suspect the dead primary
         quarantined stays quarantined — it cannot launder its record
         by crashing the leader. The successor's first containment
         sweep re-announces and re-rekeys, which is what a group under
         new management should do anyway. *)
      (match (sentinel_of mgr, Replication.Replica.suspicion r) with
      | Some sn, Some blob -> ignore (Sentinel.import sn blob)
      | _ -> ());
      let sessions =
        (Journal.state_of_records (fst (Journal.replay bytes))).Journal.sessions
      in
      let warm = t.config.warm_failover && sessions <> [] in
      if warm then
        t.counters.warm_promotions <- t.counters.warm_promotions + 1
      else
        (* Distrust the replica's sessions: restart from an empty
           journal, keeping only the epoch floor (journal belief plus
           vault) for the beacons. *)
        t.counters.cold_promotions <- t.counters.cold_promotions + 1;
      (* The replicated queue images carry the offline members' backlogs
         across the promotion: the successor's delivery layer is rebuilt
         from them (replay is total, torn images cost at most a damaged
         suffix) and keeps draining without member re-handshakes. The
         queues hold plaintext payloads re-sealed at fire time, so they
         are safe to keep even on a cold promotion that distrusts the
         replica's sessions. *)
      let restarted =
        Node.restart ~journal:bytes
          ~queues:(Replication.Replica.queue_images r)
          ~warm mgr.node
      in
      make_source t mgr ~term;
      wire_delivery mgr;
      wire_sentinel mgr;
      send_frames t ~src:mgr.name restarted.Node.frames

(* Each backup's promotion watchdog goes off every check period; the
   replica decides. The silence it waits for is staggered by succession
   position — the first backup waits one failure timeout, the second
   two, and so on — so at most one backup promotes per failure: the
   survivor's new-term snapshot restarts everyone else's count before
   their own (longer) wait runs out. *)
let start_promotion_watchdog t mgr =
  let period = t.config.check_period in
  let after =
    Int64.mul (Int64.of_int (max 1 mgr.idx)) t.config.failure_timeout
  in
  Netsim.Sim.every t.sim ~period (fun () ->
      match mgr.replica with
      | Some r when not (crashed mgr) ->
          if Replication.Replica.tick r ~period ~after then promote t mgr
      | Some _ | None -> ())

let create ?(seed = 77L) ?(config = default_config) ?delivery ?intrusion
    ~managers ~directory () =
  if managers = [] then invalid_arg "Failover.create: no managers";
  let sim = Netsim.Sim.create ~seed () in
  let net = Netsim.Network.create ~sim () in
  let rng = Netsim.Sim.rng sim in
  let counters = Replication.fresh_counters () in
  let repl_key = Key.fresh Key.Long_term rng in
  (* Every manager starts standby — m0 included, so each one's leader
     draws from [rng] in succession order before m0 starts serving. *)
  let mk_manager idx name =
    let disk = Store.Mem.create () in
    let sentinel =
      Option.map
        (fun config ->
          Sentinel.create ~config ~clock:(fun () -> Netsim.Sim.now sim) ())
        intrusion
    in
    {
      name;
      idx;
      disk;
      node =
        Node.create ~self:name ~rng ~directory ~disk ?delivery ?sentinel
          ~standby:true ();
      source = None;
      replica = None;
    }
  in
  let managers = Array.of_list (List.mapi mk_manager managers) in
  let t =
    {
      sim;
      net;
      config;
      repl_key;
      counters;
      managers;
      members = Hashtbl.create 8;
    }
  in
  Array.iter (attach_manager t) t.managers;
  Array.iter (start_heartbeat t) t.managers;
  Array.iter (start_tick t) t.managers;
  Array.iter (start_repl_heartbeat t) t.managers;
  Array.iter (start_promotion_watchdog t) t.managers;
  (* The initial primary journals through its own disk and ships the
     stream; every other manager follows as a replica. *)
  let m0 = t.managers.(0) in
  Node.serve m0.node;
  let n = Array.length t.managers in
  let term0 = term_of ~n ~generation:1 ~idx:0 in
  make_source t m0 ~term:term0;
  wire_delivery m0;
  wire_sentinel m0;
  (* Backups start with the initial term as their stale floor, so
     every term any manager ever mints is generation-consistent. *)
  Array.iter
    (fun mgr ->
      if mgr.idx > 0 then make_replica t mgr ~primary_name:m0.name ~term:term0)
    t.managers;
  List.iter
    (fun (name, password) ->
      let m = Member.create ~self:name ~leader:m0.name ~password ~rng in
      Hashtbl.replace t.members name m;
      attach_member t m;
      start_watch t m)
    directory;
  t

let member t who = Hashtbl.find t.members who

(* Retarget to the current primary, unless already in session with it. *)
let join t who =
  let m = member t who in
  match primary t with
  | Some leader when not (Member.is_connected m && Member.leader m = leader) ->
      send_frames t ~src:who (Member.retarget m ~leader)
  | Some _ | None -> ()

let start t = Hashtbl.iter (fun who _ -> join t who) t.members

let send_app t who body =
  send_frames t ~src:who (Member.send_app (member t who) body)

let crash_manager t mgr =
  Node.crash mgr.node;
  (match mgr.source with
  | Some s ->
      Replication.Source.detach s;
      mgr.source <- None
  | None -> ());
  Netsim.Network.unregister t.net mgr.name

let crash_primary t =
  match primary t with
  | None -> ()
  | Some name ->
      Array.iter
        (fun mgr -> if mgr.name = name then crash_manager t mgr)
        t.managers

let crash_primary_at t time =
  Netsim.Sim.schedule_at t.sim ~time (fun () -> crash_primary t)

let manager_of t who =
  match Hashtbl.find_opt t.members who with
  | Some m when Member.is_connected m -> Some (Member.leader m)
  | Some _ | None -> None

let connected_members t =
  Hashtbl.fold
    (fun name m acc ->
      let live =
        Array.exists
          (fun mgr -> mgr.name = Member.leader m && not (crashed mgr))
          t.managers
      in
      if Member.is_connected m && live then name :: acc else acc)
    t.members []
  |> List.sort String.compare

let sum_members t f = Hashtbl.fold (fun _ m acc -> acc + f m) t.members 0
let failovers t = sum_members t (fun m -> (Member.counters m).Member.failovers)
let failbacks t = sum_members t (fun m -> (Member.counters m).Member.failbacks)
let demotions t = t.counters.Replication.demotions

type role =
  | Primary of { term : int }
  | Backup of { term : int; catching_up : bool }
  | Down

let find_manager t name =
  let found = ref None in
  Array.iter (fun mgr -> if mgr.name = name then found := Some mgr) t.managers;
  match !found with Some mgr -> mgr | None -> raise Not_found

let leader t name = leader_of (find_manager t name)

let role t name =
  let mgr = find_manager t name in
  if crashed mgr then Down
  else
    match (mgr.source, mgr.replica) with
    | Some s, _ -> Primary { term = Replication.Source.term s }
    | None, Some r ->
        Backup
          {
            term = Replication.Replica.term r;
            catching_up = Replication.Replica.catching_up r;
          }
    | None, None -> Down

(* Drive the current primary's group-management plane from the
   harness: used by the churn/failover scenarios to park traffic in a
   member's store-and-forward queue (expel-as-silent) and to age it
   (rekey) while the member is away. *)
let with_primary t f =
  match primary t with
  | None -> ()
  | Some name ->
      let mgr = find_manager t name in
      send_frames t ~src:mgr.name (f (leader_of mgr))

let expel t who = with_primary t (fun l -> Leader.expel l who)
let rekey t = with_primary t (fun l -> Leader.rekey l)

let replica_bytes t name =
  match (find_manager t name).replica with
  | Some r -> Some (Replication.Replica.contents r)
  | None -> None

let journal_bytes t name =
  Option.map Journal.contents (Node.journal (find_manager t name).node)

let sentinel t name = sentinel_of (find_manager t name)

let replica_suspicion t name =
  match (find_manager t name).replica with
  | Some r -> Replication.Replica.suspicion r
  | None -> None

(* A copy: the shared record keeps counting. *)
let replication_stats t =
  { t.counters with Replication.records_shipped = t.counters.records_shipped }

(* The live primary's store-and-forward counters (fresh counters start
   with each promotion's rebuilt layer), plus the members' cumulative
   dedup counts — those survive promotions and switches because the
   delivery floor lives in the one automaton per member. *)
let delivery_stats t =
  let base = ref None in
  Array.iter
    (fun mgr ->
      if (not (crashed mgr)) && mgr.source <> None then
        match Leader.delivery (leader_of mgr) with
        | Some d -> base := Some (Delivery.counters d)
        | None -> ())
    t.managers;
  let deduped = sum_members t Member.deliveries_deduped in
  match !base with
  | None -> { Netsim.Stats.empty_delivery with deduped }
  | Some c ->
      {
        Netsim.Stats.queued = c.Delivery.queued;
        drained = c.Delivery.drained;
        deduped;
        resealed = c.Delivery.resealed;
        rejected_stale = c.Delivery.rejected_stale;
        delivered_stale = c.Delivery.delivered_stale;
        queue_bytes_hwm = c.Delivery.queue_bytes_hwm;
      }

let replica_queue_images t name =
  match (find_manager t name).replica with
  | Some r -> Replication.Replica.queue_images r
  | None -> []

let replication_lag t =
  let found = ref [] in
  Array.iter
    (fun mgr ->
      match mgr.source with
      | Some s -> found := Replication.Source.lag s
      | None -> ())
    t.managers;
  !found

let replication_silence t =
  Array.to_list t.managers
  |> List.filter_map (fun mgr ->
         match mgr.replica with
         | Some r when not (crashed mgr) ->
             Some (mgr.name, Replication.Replica.quiet r)
         | Some _ | None -> None)

let run ?until t = Netsim.Sim.run ?until t.sim
