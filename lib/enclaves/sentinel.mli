(** Online intrusion sentinel: streaming per-peer evidence scores with
    time decay, injection-path attribution and a containment ladder.

    The paper's audit trail (§7) is offline; the sentinel moves the
    same signals — MAC failures, replays, stale rekeys, half-open
    handshake churn, pre-auth pressure — into the live leader. Each
    evidence event adds a weighted increment to the peer's score, and
    quiet time halves it every [half_life]; crossing a threshold
    ratchets the peer's containment level up (never down — a
    quarantined insider cannot talk its way back in by going quiet,
    only explicit operator re-admission via a fresh directory entry
    would).

    {b Attribution.} A frame's claimed sender is attacker-controlled;
    its injection path (see {!Netsim.Trace.via}) is vouched for by the
    transport. Evidence is therefore charged to the path first: a frame
    arriving over a peer's own socket scores that peer at full weight
    ("on-path"); a frame merely {e claiming} a peer while arriving
    elsewhere scores the claimed name only at the discounted
    [wire_discount] ("off-path"), with the full weight going to the
    actual path principal — the socket owner, or the {!wire_peer}
    pseudo-peer for raw wire injections. Off-path score alone — the
    only thing a key-less framer can manufacture — can never cross
    [Quarantined]: the {b corroboration gate} requires either enough
    on-path score to clear the quarantine threshold by itself or two
    independent on-path evidence classes, and clamps everything else at
    [Rate_limited]. A corroboration-blocked peer can additionally be
    {b challenged} (a sealed liveness notice only the genuine
    session-key holder can ack); a successful attestation wipes its
    off-path score, so a framed-but-honest member arrests its own
    escalation while an insider's on-path record is untouched.

    The ladder and what each rung means to the leader:
    - [Rate_limited] — pre-auth token refill cut to a quarter; the
      peer still operates normally once authenticated.
    - [Quarantined] — inbound frames dropped before protocol
      processing, session expelled with an emergency rekey (the
      suspect's key material retired group-wide), delivery queue
      purged instead of salvaged, pre-auth denied.
    - [Expelled] — permanent: survives leader failover via suspicion
      replication ({!export}/{!import} ride a [Repl_suspicion] op).

    Thresholds are calibrated against both the chaos suite and the
    intruder arms (see [enclaves_cli calibrate]): a clean member under
    10% link loss must never reach [Quarantined], and neither may an
    honest victim framed by a wire-level outsider. *)

type level = Clear | Rate_limited | Quarantined | Expelled

val level_rank : level -> int
(** [Clear]=0 … [Expelled]=3; the ladder ratchets toward higher ranks. *)

val level_name : level -> string

type evidence =
  | Mac_failure  (** A seal failed to open under the expected key. *)
  | Replay  (** Stale nonce / already-seen admin sequence. *)
  | Stale_rekey  (** Rekey ack or traffic under a retired epoch. *)
  | Half_open  (** A handshake the leader GC'd without completion. *)
  | Preauth_pressure  (** One unauthenticated handshake attempt. *)
  | Malformed  (** Undecodable or wrong-state frame. *)
  | Contained  (** Traffic from an already-quarantined peer. *)

type config = {
  half_life : Netsim.Vtime.t;  (** Quiet time that halves a score. *)
  rate_limit_at : float;
  quarantine_at : float;
  expel_at : float;
  w_mac_failure : float;
  w_replay : float;
  w_stale_rekey : float;
  w_half_open : float;
  w_preauth : float;
  w_malformed : float;
  w_contained : float;
  preauth_rate : float;  (** Token-bucket refill, tokens per second. *)
  preauth_burst : float;  (** Token-bucket capacity. *)
  half_open_cap : int;  (** Max concurrent half-open handshakes. *)
  attribution : bool;
      (** Master switch for path attribution, the corroboration gate
          and challenges. [false] reproduces the pre-attribution
          sentinel exactly (every frame scored at full weight against
          its claimed sender) — the calibration sweep's baseline. *)
  wire_discount : float;
      (** Weight multiplier for off-path evidence against a claimed
          sender, in [0,1]. *)
  corroborate_floor : float;
      (** Decayed on-path class score at or above which that class
          counts as "live" for the two-class corroboration rule. *)
  challenge_cooldown : Netsim.Vtime.t;
      (** Minimum spacing between liveness challenges to one peer. *)
}

val default_config : config

val wire_peer : string
(** The pseudo-peer charged at full weight for every [Via_wire] frame.
    Not a legal member name; once {e it} reaches [Quarantined] the
    driver drops raw wire injections at the leader's door. *)

type counters = {
  mutable observations : int;  (** Evidence events scored, all peers summed. *)
  mutable rate_limits : int;  (** Escalations into [Rate_limited]. *)
  mutable quarantines : int;  (** Escalations into [Quarantined]. *)
  mutable expulsions : int;  (** Escalations into [Expelled]. *)
  mutable emergency_rekeys : int;
      (** Group rekeys forced by containment, retiring the suspect's
          key material group-wide. *)
  mutable quarantined_dropped : int;
      (** Inbound frames from quarantined peers dropped before
          protocol processing. *)
  mutable preauth_admitted : int;  (** Pre-auth frames passed to the handshake. *)
  mutable preauth_throttled : int;  (** Pre-auth frames denied by token bucket. *)
  mutable preauth_capped : int;  (** Pre-auth frames denied by the half-open cap. *)
  mutable preauth_queue_dropped : int;
      (** Pre-auth frames lost to the bounded service queue's tail —
          the overload signal when admission control is off. The queue
          is the driver's: the sentinel leaves this at 0 and
          [Driver.Improved.sentinel_counters] fills it in. *)
  mutable queues_purged : int;
      (** Quarantined members' delivery queues durably purged instead
          of salvaged. *)
  mutable suspicion_shipped : int;  (** Suspicion snapshots shipped to backups. *)
  mutable suspicion_imported : int;
      (** Suspicion snapshots adopted by a promoted successor. *)
  mutable wire_observations : int;
      (** Evidence events whose frame arrived [Via_wire] — charged at
          full weight to the wire pseudo-peer, not the claimed name. *)
  mutable off_path_observations : int;
      (** Evidence events charged to a claimed sender at the discounted
          weight because the frame did not arrive over its socket. *)
  mutable framing_holds : int;
      (** Times the corroboration gate clamped a raw quarantine-level
          score back to [Rate_limited] because the evidence lacked an
          on-path or two-class basis. *)
  mutable challenges_issued : int;
      (** Liveness challenges the leader sent to corroboration-blocked
          peers ("prove liveness under your session key"). *)
  mutable attestations : int;
      (** Challenges answered by a live session-key ack, relieving the
          answering peer's off-path score. *)
}

val fresh_counters : unit -> counters

val named : counters -> (string * int) list
(** Labelled counters for {!Netsim.Stats.pp_named}, in declaration
    order. *)

type t

val create : ?config:config -> ?clock:(unit -> Netsim.Vtime.t) -> unit -> t
(** [clock] feeds decay and token refill; the driver passes the
    simulator clock. The default constant-zero clock makes the
    sentinel a pure accumulator (no decay, no refill) — convenient for
    direct unit tests. *)

val config : t -> config
val counters : t -> counters

val observe : t -> peer:string -> evidence -> level
(** Score one on-path evidence event against [peer] and return the
    peer's (possibly escalated) level. Equivalent to {!observe_via}
    with [~via:(Via_socket peer)] — the caller asserts the frame
    arrived over [peer]'s own connection. Escalations ship a suspicion
    snapshot through the {!set_ship} hook. *)

val observe_via :
  t -> claimed:string -> via:Netsim.Trace.via -> evidence -> level
(** Score one evidence event for a frame claiming [claimed] that
    arrived over [via], splitting the weight per the attribution rules
    above, and return [claimed]'s (possibly escalated) level. With
    [attribution = false] this degrades to full weight against
    [claimed] regardless of path. *)

val score : t -> string -> float
(** The peer's total score (on-path + off-path) decayed to now; 0 for
    unknown peers. *)

val level : t -> string -> level

val peers : t -> string list
(** Every peer the sentinel holds state for (including [Clear] ones
    and {!wire_peer} if charged), sorted by name. *)

val suspects : t -> (string * level) list
(** Every peer above [Clear], sorted by name. *)

val contained : t -> string list
(** Peers at [Quarantined] or above — the set the leader must not
    serve, sorted by name. *)

val challenge_due : t -> string -> bool
(** Whether the leader should issue a liveness challenge to this peer
    now: its raw score sits at [Quarantined] or above but the
    corroboration gate is holding it down, no challenge is
    outstanding, and the per-peer cooldown has passed. Always [false]
    with [attribution = false]. *)

val note_challenged : t -> string -> unit
(** Record that the leader issued a liveness challenge to this peer;
    opens the outstanding-challenge window {!note_attested} closes. *)

val note_attested : t -> string -> bool
(** The peer answered an outstanding challenge under its live session
    key: wipe its off-path score (its own on-path record is kept) and
    return [true]. [false] — and no relief — when no challenge was
    outstanding, so unsolicited acks prove nothing. *)

type verdict = Admit | Throttled | Capped | Denied_quarantined

val verdict_name : verdict -> string

val admit_preauth :
  t ->
  ?via:Netsim.Trace.via ->
  peer:string ->
  known:bool ->
  resuming:bool ->
  half_open:int ->
  unit ->
  verdict
(** Admission check for one unauthenticated handshake frame claiming
    identity [peer]. [known] is whether the name is in the directory —
    known names each get their own token bucket, unknown names share
    one (so a fake-name flood starves itself, not real users).
    [resuming] (the peer already has a half-open handshake in
    progress) bypasses the bucket and cap: retransmissions of a
    legitimate join must not be throttled into that join's own
    failure. [half_open] is the leader's current half-open count for
    the cap. Every call scores [Preauth_pressure] evidence, so a flood
    of individually valid frames still escalates.

    When [via] is given (and attribution is on) the token bucket is
    charged to the {e path principal} — the socket owner, or
    {!wire_peer} for wire injections — so a flood under a victim's
    name drains the flooder's budget, never the victim's; admission is
    denied if either the claimed name or the path principal is
    quarantined. Omitting [via] preserves the claimed-name behavior. *)

val note_quarantined_drop : t -> ?via:Netsim.Trace.via -> string -> unit
(** Record an inbound frame dropped because the named peer is
    quarantined; also scores [Contained] evidence (attributed per
    [via], claimed-sender by default) so a persistent attacker
    escalates to [Expelled]. *)

val note_emergency_rekey : t -> unit
val note_queue_purged : t -> unit

val set_ship : t -> (string -> unit) -> unit
(** Hook fired with {!export}'s blob on every level escalation; the
    failover plane wires it to [Replication.Source.ship_suspicion]. *)

val export : t -> string
(** Deterministic ["suspicion/2"] snapshot (peers sorted, scores
    bit-exact) of every peer's per-class on-path scores, off-path
    score, level and last-update time. *)

val import : t -> string -> int
(** Merge a snapshot: both sides' score slots are decayed to the later
    timestamp and joined slot-wise by max, and levels ratchet to the
    higher of local and imported — a join-semilattice merge, so
    replicated suspicion converges under any delivery order. Only the
    rows {!export} writes are read; any other line is ignored.
    Returns the number of peers whose level escalated. Used at
    failover promotion so the successor keeps quarantines. *)

