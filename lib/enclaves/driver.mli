(** Scenario driver: wires leaders and members onto the {!Netsim}
    network and dispatches the frames the state machines emit.

    The driver is how examples, tests, benches and attacks run whole
    protocols: build a cluster, schedule joins/leaves/messages at
    virtual times, [run] the simulation, then inspect member views,
    leader state, events and the network trace.

    {!Improved} drives the §3.2 protocol; {!Legacy} drives the §2.2
    baseline. {!Improved.all_prefix_ok} checks §5.4's ordering property
    at runtime.

    The driver decides no retransmission, garbage collection or
    give-up itself: {!Leader.tick} and {!Member.tick} do, and the
    driver only schedules their ticks and sends what they return. *)

module Improved : sig
  type t

  type retry_config
  (** The timeout/retry layer, switched on by passing
      {!default_retry}. *)

  val default_retry : retry_config
  (** The leader ticks every 200 ms ({!Leader.tick}): it re-sends what
      it waits on after 200 ms, backing off ×2 up to 4 s, collects a
      handshake half-open for 3 s, never expels, and re-sends a
      restart's challenges and beacons every tick for 3 s. Members
      ({!Member.tick}) retry their handshake after 250 ms, ×2 up to
      4 s, with ±20% jitter drawn from a PRNG split off the simulation
      seed, so retry schedules replay deterministically. *)

  (** Counters for the recovery layer, for chaos reports. *)
  type retry_stats = {
    handshake_retransmits : int;  (** Member re-sent [AuthInitReq]. *)
    keydist_retransmits : int;  (** Leader re-sent [AuthKeyDist]. *)
    admin_retransmits : int;  (** Leader re-sent an [AdminMsg]. *)
    half_open_gcs : int;  (** Stalled handshakes collected. *)
    session_resets : int;
        (** Member sessions torn down and restarted after
            authenticating without ever receiving the group key. *)
  }

  (** Tuning for the durability/anti-entropy layer. All delays are
      virtual time. *)
  type recovery_config = {
    digest_period : Netsim.Vtime.t;
        (** Period of the leader's [View_digest] beacon
            ({!Leader.digest_beacon}), and of each member's silence
            alarm. *)
    probe_after : Netsim.Vtime.t;
        (** Beacon silence after which a keyed member probes the
            leader with its own digest ([ViewResyncReq]). *)
    reset_after : Netsim.Vtime.t;
        (** Beacon silence after which the member gives up on the
            session entirely and cold re-authenticates. Must exceed
            [probe_after]. *)
    beacon_on_cold : bool;
        (** Broadcast authenticated [ColdRestart] beacons on a cold
            restart ({!Leader.cold_recover}), letting members rejoin
            immediately instead of waiting out [reset_after]. Disable
            to measure the watchdog-only baseline. *)
  }

  val default_recovery : recovery_config
  (** 1 s beacons, probe at 4 s of silence, cold reset at 10 s,
      beacons on cold restart enabled. *)

  (** Counters for the crash-recovery and anti-entropy layer. *)
  type recovery_stats = {
    leader_crashes : int;
    warm_restarts : int;
    cold_restarts : int;
    challenges_sent : int;  (** Initial challenges at restart. *)
    challenge_retransmits : int;
    challenges_failed : int;
        (** Journalled sessions dropped at the challenge deadline. *)
    digests_broadcast : int;  (** Beacons enqueued (per member). *)
    probes_sent : int;  (** Member-initiated resync probes. *)
    cold_reauths : int;
        (** Members that gave up on a silent session and rejoined from
            scratch. *)
    cold_beacons_sent : int;
        (** [ColdRestart] beacons sent by cold-restarted leaders,
            re-sends included. *)
    beacon_reauths : int;
        (** Members that rejoined via the beacon shortcut instead of
            waiting out [reset_after]. *)
    crash_images : int;
        (** Restarts recovered from a captured durable crash image. *)
  }

  type preauth_config
  (** Pre-auth flood control, switched on by passing
      {!default_preauth}: a bounded FIFO in front of the leader's
      unauthenticated handshake path, served in jittered batches. *)

  val default_preauth : preauth_config
  (** A 32-slot queue (a quarter of that below [Healthy]), 4
      handshakes served per 50 ms tick (±25% jitter). *)

  val create :
    ?seed:int64 ->
    ?latency_us:int * int ->
    ?policy:Leader.policy ->
    ?retry:retry_config ->
    ?recovery:recovery_config ->
    ?storage_faults:Store.Fault.config ->
    ?delivery:Delivery.policy ->
    ?delivery_budgets:Delivery.budgets ->
    ?preauth:preauth_config ->
    ?intrusion:Sentinel.config ->
    leader:Types.agent ->
    directory:(Types.agent * string) list ->
    unit ->
    t
  (** Build a cluster: one leader plus a member automaton for every
      directory entry, all attached to a fresh simulated network.

      With [retry] set, the driver also runs the timeout/retry layer
      (see {!default_retry}): the leader's {!Leader.tick} every 200 ms,
      from each incarnation's start, and each member's handshake alarm
      ({!Member.tick}) whenever the member asks for one. The tick is an
      [until]-less periodic task, so runs with [retry] should bound
      execution via {!run}[ ~until]. Without [retry] no handshake or
      admin frame is re-sent, collected or given up on (single-shot
      sends).

      With [recovery] set, the driver additionally journals the
      leader's trust-critical state, sends the leader's
      {!Leader.digest_beacon} every [digest_period], fires each
      member's silence alarm every [digest_period] (probe, then cold
      re-authentication, on beacon silence), and supports
      {!crash_leader}/{!restart_leader}. The leader's tick then runs
      without [retry] too, re-sending a restart's challenges and
      beacons every 200 ms and giving up on them after 3 s. These are
      periodic tasks too: bound runs with {!run}[ ~until].

      With [recovery] set the journal also writes through a simulated
      disk ({!Store.Mem}); [storage_faults] additionally wraps the
      disk in the seeded fault layer ({!Store.Fault}), injecting torn
      writes, short writes, dropped fsyncs and transient EIO into the
      journal's write path. A subsequent {!crash_leader} captures the
      {e durable} disk image, and {!restart_leader} recovers from that
      image — so unsynced bytes really die in the crash.

      With [delivery] set, the leader additionally runs a
      store-and-forward {!Delivery} layer under the given epoch-window
      policy, on the same (possibly fault-wrapped) backend as the
      journal when recovery is on: traffic for members marked offline
      ({!mark_offline}, or expelled-as-silent) is durably queued and
      drained at reconnect. {!crash_leader} captures each queue file's
      durable image and {!restart_leader} rebuilds the layer from
      those images, so acknowledged deliveries survive the crash and
      unacknowledged ones re-drain (the member's delivery floor
      absorbs the duplicates). [delivery_budgets] additionally bounds
      the queues' memory: once a per-member or global byte budget is
      crossed, the layer sheds oldest-first with durable [Drop]
      markers, and the leader notes the pressure on its degraded-mode
      ladder.

      With [preauth] set, [AuthInitReq] frames wait in a bounded FIFO
      and are served in jittered batches instead of reaching the
      leader on arrival — a pre-auth flood pays in queueing delay and
      tail drops, not leader work. With [intrusion] set, the driver
      runs one {!Sentinel} on the simulator clock, threads it into
      every leader incarnation (suspicion and quarantines survive
      restarts), applies {!Sentinel.admit_preauth} at the queue door,
      and dispatches {!Leader.containment_sweep} after every service
      tick ({!Leader.tick} runs it too). *)

  val sim : t -> Netsim.Sim.t
  val net : t -> Netsim.Network.t
  val leader : t -> Leader.t

  val member : t -> Types.agent -> Member.t
  (** @raise Not_found for agents outside the directory. *)

  val join : t -> Types.agent -> unit
  (** Emit the member's [AuthInitReq] now (at the current virtual
      time). With [retry] enabled, also (re)start the member's
      handshake alarm; it replaces any pending one. *)

  val retry_stats : t -> retry_stats
  val recovery_stats : t -> recovery_stats

  val retry_counters : t -> (string * int) list
  (** {!retry_stats} as labelled counters for
      {!Netsim.Stats.pp_named}. *)

  val recovery_counters : t -> (string * int) list
  (** {!recovery_stats} plus the derived totals
      ([sessions_recovered] and [resyncs_served], summed across leader
      incarnations, and the members' [divergences_detected]) as
      labelled counters. *)

  val storage_counters : t -> (string * int) list
  (** What the storage-fault layer did to the journal so far, as
      labelled counters for {!Netsim.Stats.pp_named}: injection counts
      from {!Store.Fault}, EIO retries absorbed by the journal (summed
      across leader incarnations), and crash images replayed. All zero
      when [storage_faults] was not given. *)

  (** {2 Resource pressure and the degraded-mode ladder} *)

  val rearms : t -> int
  (** Successful re-arms back to [Healthy], summed across leader
      incarnations. *)

  val fault : t -> Store.Fault.t option
  (** The storage-fault layer over the simulated disk, when
      [storage_faults] was given: one layer outlives every leader
      incarnation. Adjust its byte budget ([None] lifts the pressure;
      the leader's next tick then re-arms durability), trip or heal a
      persistent write stall, or read the bytes it accounts to the
      disk. The current incarnation's degraded-mode rung and delivery
      layer are {!Leader.mode} and {!Leader.delivery} of {!leader}. *)

  val resource_counters : t -> (string * int) list
  (** Resource-pressure counters summed across leader incarnations,
      labelled for {!Netsim.Stats.pp_named}: ladder entries
      ([degraded_entries]), records shed under byte budgets, ENOSPC
      refusals and the worst fsync stall from the fault layer. *)

  val sessions_recovered : t -> int
  (** Sessions restored warm (challenge answered), summed across all
      leader incarnations. Each incarnation's count is banked once,
      when a restart replaces it: a crash leaves the sum unchanged, and
      a crash-free restart does not lower it. *)

  val crash_leader : t -> unit
  (** Kill the leader: detach it from the network and drop every frame
      addressed to it. In-memory automaton state is lost; only the
      journal bytes survive. Idempotent while down. *)

  val restart_leader : ?warm:bool -> ?journal_bytes:string -> t -> Journal.status
  (** Bring the leader back. With [warm] (default) and a journal, the
      surviving bytes ([journal_bytes] overrides what the driver
      holds; after a {!crash_leader} the captured durable image is
      used, not the live buffer) are {!Journal.recover}ed, the
      automaton is rebuilt via {!Leader.recover}, and a
      [RecoveryChallenge] goes to every journalled session. The
      leader's tick restarts with the incarnation, so with [retry] the
      challenges are re-sent from the restart on, every tick, for 3 s.
      Returns the journal damage report.

      [~warm:false] is a cold restart: no session is trusted and every
      member re-authenticates from scratch — but the surviving journal
      bytes still pin the epoch floor, and (unless
      [recovery_config.beacon_on_cold] is off) the new incarnation
      broadcasts authenticated [ColdRestart] beacons so members rejoin
      without waiting out their silence alarm; with [retry] the tick
      re-sends them to members still out of session, every tick, for
      3 s.
      @raise Invalid_argument when the driver was created without
      [recovery]: there is no journal to restart from. *)

  val schedule_leader_crash :
    ?restart_after:Netsim.Vtime.t ->
    ?warm:bool ->
    ?journal_bytes:string ->
    t ->
    at:Netsim.Vtime.t ->
    unit ->
    unit
  (** Schedule {!crash_leader} at virtual time [at] and, if
      [restart_after] is given, {!restart_leader} that much later. *)

  val leader_down : t -> bool

  val journal_bytes : t -> string option
  (** The leader journal's current on-"disk" bytes, when journalling
      is enabled. *)

  val epoch_vault : t -> Store.Vault.t option
  (** The durable epoch vault, when recovery is enabled. Rebuilt from
      its durable image on every {!restart_leader}; the leader floors
      its epoch counter (and stamps its cold-restart beacons) at the
      vault's value, so losing the journal's last [Epoch_bump] record
      no longer yields a stale beacon. *)

  val leave : t -> Types.agent -> unit
  val send_app : t -> Types.agent -> string -> unit

  val dispatch_leader : t -> Wire.Frame.t list -> unit
  (** Put frames produced by direct {!Leader} API calls (e.g.
      {!Leader.rekey}) on the wire. *)

  val rekey : t -> unit
  val expel : t -> Types.agent -> unit

  (** {2 Store-and-forward} *)

  val mark_offline : t -> Types.agent -> unit
  (** {!Leader.mark_offline} on the current leader incarnation. *)

  val mark_online : t -> Types.agent -> unit
  (** {!Leader.mark_online}, putting the drain frames on the wire. *)

  val offline_members : t -> Types.agent list

  val queue_depth : t -> Types.agent -> int
  (** Pending (unacknowledged) deliveries queued for one member. *)

  val total_queue_depth : t -> int

  val delivery_stats : t -> Netsim.Stats.delivery
  (** Store-and-forward counters summed across leader incarnations
      (the high-water mark is a max), with the members' cumulative
      dedup counts filled in. All zeros when [delivery] was not
      given. *)

  val delivery_counters : t -> (string * int) list
  (** {!delivery_stats} as labelled counters for
      {!Netsim.Stats.pp_named}. *)

  (** {2 Intrusion containment} *)

  val sentinel : t -> Sentinel.t option
  (** The cluster's intrusion sentinel, when [intrusion] was given at
      {!create}. One instance outlives every leader incarnation. *)

  val sentinel_counters : t -> (string * int) list
  (** {!Sentinel.named} counters, with the driver's pre-auth queue
      tail drops ([preauth_queue_dropped]) and door drops
      ([injections_blocked]) filled in, labelled for
      {!Netsim.Stats.pp_named}. All zeros (except possibly those two)
      when [intrusion] was not given. *)

  val start_periodic_rekey :
    t -> period:Netsim.Vtime.t -> ?until:Netsim.Vtime.t -> unit ->
    Netsim.Sim.handle
  (** Schedule leader rekeys every [period] of virtual time — the
      paper's "on a periodic basis" policy. Without [until] the
      schedule runs until the returned handle is
      {!Netsim.Sim.cancel}led (previously it could never be torn down
      and prevented quiescence forever). *)

  val run : ?until:Netsim.Vtime.t -> t -> int
  (** Run the simulation to quiescence (or [until]); returns events
      executed. *)

  val all_prefix_ok : t -> bool
  (** §5.4 check: for every member the leader runs a live session
      with, the member's accepted-admin list is a prefix of the
      leader's sent list for that member. *)

  val converged : t -> bool
  (** The chaos suite's goal state: every directory member is
      [Connected], all members and the leader agree on the group-key
      epoch, and {!all_prefix_ok} holds. *)

  val view_converged : t -> bool
  (** {!converged} plus view agreement: every member's membership view
      equals the leader's member list — what the anti-entropy layer
      drives the system back to. *)
end

module Legacy : sig
  type t

  val create :
    ?seed:int64 ->
    ?latency_us:int * int ->
    ?policy:Legacy_leader.policy ->
    leader:Types.agent ->
    directory:(Types.agent * string) list ->
    unit ->
    t

  val sim : t -> Netsim.Sim.t
  val net : t -> Netsim.Network.t
  val leader : t -> Legacy_leader.t
  val member : t -> Types.agent -> Legacy_member.t
  val join : t -> Types.agent -> unit
  val leave : t -> Types.agent -> unit
  val send_app : t -> Types.agent -> string -> unit
  val rekey : t -> unit
  val run : ?until:Netsim.Vtime.t -> t -> int
end
