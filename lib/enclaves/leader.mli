(** Improved-protocol group leader — the per-member state machines of
    Figure 3 plus group-level management.

    For each known user the leader runs one session automaton:
    - [NotConnected] — the user is out;
    - [WaitingForKeyAck (Nl, Ka)] — the leader answered an
      [AuthInitReq] with a fresh session key [Ka] and nonce [Nl], and
      waits for the [AuthAckKey] echoing [Nl];
    - [Connected (Na, Ka)] — the user is a member; [Na] is the most
      recent nonce received from the user, to be embedded in the next
      [AdminMsg];
    - [WaitingForAck (Nl, Ka)] — an [AdminMsg] carrying fresh [Nl] is
      outstanding; nothing more is sent to this member until the [Ack]
      echoing [Nl] arrives.

    The nonce chain serialises the admin channel per member, so the
    leader keeps a per-member queue of pending group-management
    payloads and drains it one acknowledgment at a time — this is what
    yields §5.4's "accepted in order, no duplication" property.

    Group-level duties: group-key generation and rekeying (epoch
    counter), membership bookkeeping, join/leave notifications,
    expulsion, and relay of application traffic.

    On session close the leader discards [K_a] and reports it in a
    [Member_closed] event — the paper's [Oops(K_a)]: scenarios hand the
    dead key to the adversary to model compromise of expired session
    keys. *)

type t

type policy = {
  rekey_on_join : bool;  (** Fresh [K_g] whenever a member joins. *)
  rekey_on_leave : bool;  (** Fresh [K_g] whenever a member leaves. *)
  degrade : bool;
      (** Arm the degraded-mode ladder: storage pressure
          ([No_space]/[Stalled] from the backend) triggers compaction,
          then memory-only operation, instead of escaping as an
          exception. Off is the crash-on-pressure baseline the nemesis
          harness measures the ladder against. *)
}

val default_policy : policy
(** Rekey on join and on leave, degraded-mode ladder armed — the
    conservative setting. *)

type mode = Healthy | Durability_degraded | Memory_only | Shedding
(** The degraded-mode ladder, ordered by severity. One-way down inside
    a pressure episode ({!mode} reports the worst rung reached);
    {!try_rearm} recovers to [Healthy] in a single step once the
    store accepts writes again.

    - [Durability_degraded]: a disk mirror was refused; compaction
      freed space (or is about to be retried) and writes are still
      attempted.
    - [Memory_only]: the disk refused even compaction; auth/rekey keep
      being served entirely from memory and nothing touches the
      backend until re-arm.
    - [Shedding]: the delivery byte budgets are actively dropping
      queued records oldest-first (with durable [Drop] markers). *)

val mode : t -> mode
val mode_rank : mode -> int
(** [Healthy] is 0; higher is worse. *)

val durability_armed : t -> bool
(** Whether the journal and delivery mirrors are currently writing
    through ([false] exactly in memory-only operation). *)

val try_rearm : t -> bool
(** Probe the store: re-arm the mirrors and republish journal, queues
    and vault. Any refusal disarms again and returns [false]; success
    returns to [Healthy] and queues the all-clear notice. [true] when
    already healthy. {!tick} calls this while below [Healthy]. *)

type event =
  | Member_authenticated of Types.agent
  | Member_closed of { member : Types.agent; session_key : Sym_crypto.Key.t }
  | Member_expelled of { member : Types.agent; session_key : Sym_crypto.Key.t }
  | Ack_received of Types.agent
  | App_relayed of { author : Types.agent }
  | Member_recovered of Types.agent
      (** A recovery challenge was answered: the journalled session is
          trusted again without a full re-handshake. *)
  | Cold_restart_acked of Types.agent
      (** A member answered this cold incarnation's beacon with a
          liveness challenge and was acked; its rejoin should follow. *)
  | Resync_served of Types.agent
      (** A member reported a divergent view digest and was repaired. *)
  | Rejected of {
      label : Wire.Frame.label option;
      claimed : Types.agent option;
      reason : Types.reject_reason;
    }

val pp_event : Format.formatter -> event -> unit

type session_view =
  | Not_connected
  | Waiting_for_key_ack of Wire.Nonce.t * Sym_crypto.Key.t
  | Connected of Wire.Nonce.t * Sym_crypto.Key.t
  | Waiting_for_ack of Wire.Nonce.t * Sym_crypto.Key.t
  | Recovering of Wire.Nonce.t * Sym_crypto.Key.t
      (** A [RecoveryChallenge] under the journalled [K_a] is
          outstanding; the member is not counted as a member until it
          answers. *)

val create :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * string) list ->
  ?policy:policy ->
  ?journal:Journal.t ->
  ?vault:Store.Vault.t ->
  ?delivery:Delivery.t ->
  ?sentinel:Sentinel.t ->
  unit ->
  t
(** [create ~self ~rng ~directory ()] builds a leader knowing the
    password of every prospective member in [directory]. When
    [journal] is given, session establishments and closes and
    group-key epoch bumps are appended to it as they happen. When
    [vault] is given, every granted epoch is also written to the
    durable epoch vault at grant time — a second, tail-independent
    write path that survives losing the journal's last record. *)

val create_with_keys :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * Sym_crypto.Key.t) list ->
  ?policy:policy ->
  ?journal:Journal.t ->
  ?vault:Store.Vault.t ->
  ?delivery:Delivery.t ->
  ?sentinel:Sentinel.t ->
  unit ->
  t
(** Like {!create} but with explicit long-term keys per member — used
    by {!Pk_auth}.
    @raise Invalid_argument if any key kind is not [Long_term]. *)

val recover :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * string) list ->
  ?policy:policy ->
  journal:Journal.t ->
  ?vault:Store.Vault.t ->
  ?delivery:Delivery.t ->
  ?sentinel:Sentinel.t ->
  state:Journal.state ->
  unit ->
  t * Wire.Frame.t list
(** Warm restart from a journal recovered with {!Journal.recover}: the
    group key and epoch counter are restored (the epoch floor also
    honours [vault] when given), and each journalled
    session enters [Recovering] with a [RecoveryChallenge] sealed
    under its [K_a] (the returned frames). No journalled session is
    trusted until its member echoes the challenge nonce
    ({!event.Member_recovered}); a member that never answers is
    dropped by {!tick} at its challenge deadline — the cold path. *)

val cold_recover :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * string) list ->
  ?policy:policy ->
  ?journal:Journal.t ->
  ?vault:Store.Vault.t ->
  ?delivery:Delivery.t ->
  ?sentinel:Sentinel.t ->
  ?beacons:bool ->
  state:Journal.state ->
  unit ->
  t * Wire.Frame.t list
(** Cold restart that still announces itself. No journalled session is
    trusted — every member must re-run the full handshake — but the
    journal's surviving prefix supplies two things: the epoch counter
    floor (so the group-key epoch never regresses across a cold
    restart; the floor is re-journalled immediately) and the group
    epoch to stamp into an authenticated [ColdRestart] beacon per
    directory member (the returned frames), sealed under each member's
    long-term [P_a]. When [vault] is given the beacon epoch (and the
    floor) is the {e maximum} of the journal's belief and the vault's
    — this is what closes E19b's residue: a torn tail that loses the
    final [Epoch_bump] record no longer makes the beacon look stale to
    members who saw that bump, because the vault slot survived. Members that verify the beacon challenge this
    leader's liveness and, on the ack, rejoin immediately instead of
    waiting out their anti-entropy watchdog. Only the incarnation
    created by this call answers those challenges. {!tick} re-sends
    the beacon of every member still out of session until the
    challenge deadline. With [~beacons:false] (default [true]) nothing
    is returned or re-sent: the watchdog-only baseline. *)

val self : t -> Types.agent
val receive : t -> ?via:Netsim.Trace.via -> string -> Wire.Frame.t list
(** Dispatch one raw inbound frame. [via] is the transport-vouched
    injection path of the frame, when the caller (the driver) has it:
    every rejection scored during the dispatch attributes its sentinel
    evidence to that path rather than to the frame's claimed sender.
    Omitting it degrades to claimed-sender attribution — the right
    default for direct unit-test calls. *)

val session : t -> Types.agent -> session_view
val members : t -> Types.agent list
(** Users currently in session (sorted). *)

val group_key : t -> Types.group_key option

val enqueue_admin : t -> Types.agent -> Wire.Admin.t -> Wire.Frame.t list
(** Queue a group-management payload for one member; returns the
    [AdminMsg] frame immediately if the member's channel is idle.
    Payloads for users not in session are discarded. *)

val broadcast_admin : t -> Wire.Admin.t -> Wire.Frame.t list
(** {!enqueue_admin} to every current member. *)

val rekey : t -> Wire.Frame.t list
(** Generate a fresh group key (next epoch) and distribute it to all
    members via the admin channel. *)

val expel : t -> Types.agent -> Wire.Frame.t list
(** Eject a member: discard its session key (reported via
    [Member_expelled] — an Oops), notify the remaining members, and
    rekey if the policy says so. With a delivery layer, the expelled
    member is additionally marked offline: its unfired channel backlog
    is salvaged into its durable queue, and subsequent broadcasts are
    journalled for it instead of dropped, to be drained when it
    reconnects warm (recovery challenge) or cold (re-join). *)

(** {2 Store-and-forward} *)

val mark_offline : t -> Types.agent -> unit
(** Flag a directory member as offline/partitioned: broadcast traffic
    addressed to it is journalled in the delivery layer (when present)
    instead of dropped. No-op for users not in the directory. *)

val mark_online : t -> Types.agent -> Wire.Frame.t list
(** The partition healed: clear the offline mark and, if the member is
    in session, drain its durable queue into the admin channel (the
    returned frames start the drain). Out of session the mark is kept
    until an actual reconnect drains the queue. *)

val offline_members : t -> Types.agent list
(** Members currently marked offline, sorted. *)

val delivery : t -> Delivery.t option
(** The store-and-forward layer this leader journals offline traffic
    through, if any. *)

(** {2 Intrusion containment} *)

val sentinel : t -> Sentinel.t option
(** The online intrusion sentinel feeding on this leader's rejection
    stream, if any. Every {!event.Rejected} scores evidence against
    the claimed sender; half-open GCs ({!tick}) score
    [Half_open]. *)

val containment_sweep : t -> Wire.Frame.t list
(** Contain every directory member the sentinel holds at [Quarantined]
    or above and not yet acted on: tear down its session {e without}
    store-and-forward salvage, durably purge its delivery queue,
    broadcast a ["quarantined:<who>"] notice, and force an emergency
    rekey retiring every key the suspect held. Idempotent — already
    contained suspects are skipped; claimed names outside the
    directory are left to admission control. Runs automatically at the
    end of every {!receive} and every {!tick}, so escalations fed by a
    half-open GC between frames are acted on too.

    The same pass issues {e liveness challenges}: an in-session
    directory member whose raw score is quarantine-level but
    corroboration-blocked (see {!Sentinel.challenge_due}) is sent a
    sealed ["liveness-challenge"] admin notice; the routine sealed ack
    that comes back attests the member is the genuine key holder and
    wipes its off-path (framed) score. *)

val half_open : t -> Types.agent list
(** Members with an outstanding handshake ([WaitingForKeyAck]),
    sorted. *)

val digest_beacon : t -> Wire.Frame.t list
(** The periodic anti-entropy beacon: a [View_digest] of the current
    member list and key epoch, queued for every member whose admin
    channel is idle (a member with an [AdminMsg] outstanding is
    skipped, not queued behind it). *)

(** {2 Timeouts}

    Every frame the leader waits on ([AuthKeyDist], [AdminMsg],
    [RecoveryChallenge], and a [ColdRestart] beacon while its member is
    out of session) is one {e watch}, keyed by the frame's nonce and
    started by the first tick that sees it. The frame is re-sent
    byte-identical (nothing advances, [snd_A] does not grow) once the
    nonce has outlived its interval since the last send: [period],
    doubling up to [max_interval] — except challenges and beacons,
    which re-send every [period]. Past [deadline] a half-open handshake
    is collected (scoring [Half_open] evidence), an unacked member is
    expelled if [expel] is set, an unanswered challenge drops the
    journalled key — the cold path — and a beacon stops. *)

type timers = {
  period : Netsim.Vtime.t;  (** Tick period and first re-send interval. *)
  max_interval : Netsim.Vtime.t;  (** Interval cap. *)
  deadline : Netsim.Vtime.t;  (** Give-up deadline of every watch. *)
  expel : bool;  (** Expel a member whose [AdminMsg] outlives [deadline]. *)
  retry : bool;
      (** Watch [AuthKeyDist] and [AdminMsg] and run the sweeps. [false]
          is a leader without the retry layer: it watches only
          challenges and beacons. *)
}

val tick : t -> now:Netsim.Vtime.t -> timers -> Wire.Frame.t list
(** One pass at virtual time [now], every [period]: the re-sends and
    give-ups above, by kind then member, then, with [retry],
    {!containment_sweep}, a {!try_rearm} below [Healthy], and any
    pending ladder notice. *)

type counters = {
  mutable recoveries : int;  (** Challenges answered: sessions recovered warm. *)
  mutable resyncs_served : int;  (** Divergent view digests repaired. *)
  mutable degraded_entries : int;  (** Ladder transitions taken downward. *)
  mutable rearms : int;  (** Successful recoveries to [Healthy]. *)
  mutable keydist_retransmits : int;
  mutable admin_retransmits : int;
  mutable half_open_gcs : int;
  mutable challenge_retransmits : int;
  mutable challenges_failed : int;  (** Challenges given up on. *)
  mutable beacon_retransmits : int;
  mutable digests_broadcast : int;  (** {!digest_beacon} frames, per member. *)
}

val fresh_counters : unit -> counters
(** All zero. *)

val counters : t -> counters
(** This incarnation's counters since creation, live. *)

val sent_admin : t -> Types.agent -> Wire.Admin.t list
(** The ordered list [snd_A]: admin payloads sent to this member in
    its current session (§5.4). Reset when the session closes. *)

val pending_admin : t -> Types.agent -> Wire.Admin.t list
(** Queued payloads not yet put on the wire. *)

val drain_events : t -> event list
