(** Improved-protocol group member — the user state machine of
    Figure 2.

    A member is in one of three protocol states:
    - [NotConnected] — out of the group;
    - [WaitingForKey N1] — sent [AuthInitReq] carrying fresh nonce
      [N1], awaiting the leader's [AuthKeyDist];
    - [Connected (Na, Ka)] — in session with key [Ka]; [Na] is the last
      nonce this member generated and is the freshness evidence the
      next [AdminMsg] from the leader must present.

    Beyond the Figure 2 skeleton the member tracks the application
    state an Enclaves user needs: the current group key (delivered in
    [New_group_key] admin messages), its view of the membership, the
    ordered log of accepted admin messages ([rcv_A] of §5.4). Decrypted
    application traffic is reported as [App_received] events only.

    Any frame that fails authentication, parsing, an identity check, a
    nonce check, or arrives in the wrong state is {e rejected}: the
    member's protocol state does not change and a [Rejected] event is
    recorded. This silent-drop discipline is the intrusion tolerance —
    attacker bytes cannot make the automaton move.

    One carve-out makes the automaton retransmission-tolerant without
    weakening that discipline: an authenticated {e duplicate} of the
    last frame this member already answered (an [AuthKeyDist] whose
    [N2] it already acked, or an [AdminMsg] whose nonce it already
    acked) elicits a re-send of the stored answer — a frame that was
    already on the wire — with no state change and no fresh
    randomness. Lost acks therefore heal instead of wedging the peer,
    and a replaying attacker gains nothing. *)

type t

type event =
  | Joined of { session_key : Sym_crypto.Key.t }
  | Admin_accepted of Wire.Admin.t
  | App_received of { author : Types.agent; body : string }
      (** The one record of a delivered application message: the
          member keeps no other copy. *)
  | Left
  | Recovery_challenged of { from : Types.agent }
      (** [from] proved possession of [K_a]; the admin nonce chain was
          re-seeded and the §5.4 log restarted. [from] is usually the
          leader that restarted, but may be a warm-promoted successor
          manager that recovered the session from the replicated
          journal — in that case this member retargeted its leader to
          [from] (the {e warm handoff}: session key, group key and
          view all survive). *)
  | Cold_beacon_challenged of { epoch : int }
      (** A [ColdRestart] beacon verified under [P_a]; a liveness
          challenge was sent back. The session is untouched. *)
  | Beacon_reset of { epoch : int }
      (** The leader answered the challenge: the dead session was
          dropped and a rejoin started — without waiting for the
          silence watch. *)
  | View_diverged of { leader_epoch : int }
      (** A [View_digest] beacon did not match this member's own view;
          a resync request was sent. *)
  | Rejected of { label : Wire.Frame.label option; reason : Types.reject_reason }

val pp_event : Format.formatter -> event -> unit

type state_view =
  | Not_connected
  | Waiting_for_key of Wire.Nonce.t
  | Connected of Wire.Nonce.t * Sym_crypto.Key.t

val create :
  self:Types.agent -> leader:Types.agent -> password:string ->
  rng:Prng.Splitmix.t -> t
(** [create ~self ~leader ~password ~rng] builds a member holding the
    long-term key [P_a] derived from [password]. *)

val create_with_key :
  self:Types.agent -> leader:Types.agent -> long_term:Sym_crypto.Key.t ->
  rng:Prng.Splitmix.t -> t
(** Like {!create} but with explicit long-term key material — used by
    {!Pk_auth} for the public-key authentication variant.
    @raise Invalid_argument if the key kind is not [Long_term]. *)

val self : t -> Types.agent

val leader : t -> Types.agent
(** The manager this member currently follows — the [leader] it was
    created with until {!retarget} or a warm handoff (see
    [Recovery_challenged]) moves it. *)

val state : t -> state_view
val is_connected : t -> bool

val join : t -> Wire.Frame.t list
(** Start the §3.2 handshake: emits [AuthInitReq]. No-op (empty list)
    unless [NotConnected]. Either way it (re)starts the handshake
    watchdog (see {!tick}). *)

val leave : t -> Wire.Frame.t list
(** Emit [ReqClose] sealed under [K_a] and drop to [NotConnected].
    No-op unless connected. *)

val retarget : t -> leader:Types.agent -> Wire.Frame.t list
(** Leave the current manager — [ReqClose] to it when connected, a
    pending handshake dropped — and {!join} [leader], keeping the
    delivery floor, logs and counters. Also (re)starts the [Manager]
    alarm (see {!tick}), which a member never retargeted ignores. *)

val receive : t -> string -> Wire.Frame.t list
(** Feed raw network bytes; returns frames to send in response. *)

val send_app : t -> string -> Wire.Frame.t list
(** Encrypt an application message under the current group key and
    address it to the leader for relay. Empty if no group key yet. *)

val group_key : t -> Types.group_key option
val group_view : t -> Types.agent list
(** This member's belief about current membership (sorted). *)

val accepted_admin : t -> Wire.Admin.t list
(** The ordered list [rcv_A]: every admin message accepted so far in
    the current session. Reset on leave. *)

val delivery_floor : t -> int
(** Store-and-forward dedup floor: every [Queued] wrapper with a seq
    below this has been applied. Cumulative — survives session resets,
    so at-least-once redelivery after a reconnect is absorbed rather
    than applied twice. *)

val deliveries_deduped : t -> int
(** Drained [Queued] records skipped as duplicates (cumulative). *)

val stale_deliveries : t -> int
(** Drained records marked stale by the leader's epoch-window policy —
    recorded but applied with no state effect (cumulative). *)

val queued_applied : t -> int list
(** Delivery seqs applied so far, in application order — the churn
    harness asserts these are duplicate-free. *)

val drain_events : t -> event list
(** Events since the last drain, oldest first. The log grows until the
    caller drains it: neither {!Driver} nor {!Failover} does. *)

val session_key : t -> Sym_crypto.Key.t option
(** [K_a] when connected (exposed for tests and Oops modelling). *)

(** {2 The watchdog}

    One per member, with three alarms. The {e handshake} alarm re-sends
    the pending [AuthInitReq] (behind a reset's close) after 250 ms,
    doubling up to 4 s, each wake jittered by a factor in [0.8, 1.2];
    a session still keyless at two alarms in a row is closed and
    restarted; a keyed member's alarm stops. The {e silence} alarm goes
    off every [beacon_period]: a keyed member that saw no [View_digest]
    for [probe_after] probes with a [ViewResyncReq] each period, and
    after [reset_after] re-authenticates from scratch.

    The {e manager} alarm is the failure detector of a member of a
    multi-manager group ({!Failover}), active once {!retarget} started
    it. It goes off every [period] and counts the silence in periods;
    a [Joined], [Admin_accepted], [Recovery_challenged],
    [Cold_beacon_challenged] or [Beacon_reset] event restarts the
    count. At the first two silent timeouts the manager may only be
    {e slow}: the member re-sends its pending [AuthInitReq] (same
    frame, same [N1]). At the third it fails over to [next] (with
    [None], it stays put). A connected member that is not silent but
    away from [primary] fails back to it after [failback_after],
    counted from the first alarm that saw it away (a warm handoff
    restarts that clock), so a healed partition reconverges to one
    group. The patience gives a warm-promoted successor its window:
    its recovery challenge restarts the count long before a cold
    failover. *)

type alarm =
  | Handshake
  | Silence of {
      beacon_period : Netsim.Vtime.t;
      probe_after : Netsim.Vtime.t;
      reset_after : Netsim.Vtime.t;  (** Must exceed [probe_after]. *)
    }
  | Manager of {
      period : Netsim.Vtime.t;  (** How often the alarm goes off. *)
      timeout : Netsim.Vtime.t;
          (** Silence after which the member suspects its manager; a
              whole number of periods. *)
      failback_after : Netsim.Vtime.t;
      primary : Types.agent option;
          (** The manager the group should converge on, if any is up. *)
      next : Types.agent option;
          (** The live manager to fail over to, if any. *)
    }

val tick : t -> alarm -> Wire.Frame.t list
(** The decision at one alarm; returns the frames to send. *)

val next_wake : t -> rng:Prng.Splitmix.t -> Netsim.Vtime.t option
(** The jittered delay to the next handshake alarm, drawn from [rng],
    when {!join}, a beacon reset or {!tick} asked for one since the
    last call; [None] otherwise. A new alarm replaces the pending one:
    a member runs one handshake watchdog at a time. *)

type counters = {
  mutable handshake_retransmits : int;
  mutable session_resets : int;  (** Keyless sessions closed and restarted. *)
  mutable probes_sent : int;
  mutable cold_reauths : int;  (** Silent sessions given up on. *)
  mutable beacon_reauths : int;
      (** Rejoins through a cold-restart beacon instead of the silence
          watch. *)
  mutable divergences : int;  (** Beacons that mismatched this member's view. *)
  mutable failovers : int;  (** Silent managers left for [next]. *)
  mutable failbacks : int;  (** Returns to the primary. *)
}

val counters : t -> counters
(** The counters, cumulative across sessions, live. *)
