(** Seeded compromised-insider campaign plans.

    A sibling of {!Faultplan} for the {e insider} threat model: where
    the fault plan perturbs honest traffic (loss, corruption,
    partitions), an intruder plan schedules {e hostile} traffic — the
    A1/A2/A3 campaigns a compromised member can run with real key
    material. This module owns only the deterministic scheduling and
    the per-arm accounting; crafting the actual frames requires key
    material and protocol knowledge, so the actor lives above the
    network layer (see [Adversary.Insider]) and injects at the times
    this plan dictates.

    Like every other fault in the simulator, a campaign is a pure
    function of the seed: the plan is drawn from a private split of the
    root PRNG stream, so replaying a seed replays the attack
    tick-for-tick. *)

type arm =
  | Preauth_flood
      (** A1: flood the unauthenticated handshake surface — junk
          AuthInitReq frames under fake names, valid ones under the
          insider's own identity, forged ConnectionDenied at joining
          victims. *)
  | Handshake_storm
      (** Valid fresh-nonce AuthInitReq spam under the insider's own
          identity: every frame restarts the handshake, churning the
          leader's half-open table. *)
  | Forge_burst
      (** A2: frames sealed under expired or mismatched key material
          (retired session keys, the group key where a session key is
          required), failing MAC checks at the receiver. *)
  | Replay_burst
      (** A3: verbatim re-injection of frames captured off the wire —
          stale-nonce admin traffic, old handshake legs. *)
  | Frame_replay
      (** Framing, replay flavor: a {e wire-level outsider} (no keys,
          no endpoint) re-injects a chosen victim's own captured
          frames verbatim, trying to pin the resulting replay evidence
          on the victim and get an honest member quarantined. *)
  | Frame_flood
      (** Framing, flood flavor: the outsider floods the
          unauthenticated handshake surface with junk frames that
          {e claim} the victim as sender, trying to spend the victim's
          admission budget and pin pre-auth pressure on it. *)

val arm_name : arm -> string

type campaign = {
  arm : arm;
  start : Vtime.t;
  stop : Vtime.t;  (** inclusive: ticks at exactly [stop] still fire *)
  period : Vtime.t;  (** nominal spacing between bursts *)
  burst : int;  (** frames injected per tick *)
}

val campaign :
  arm:arm ->
  start:Vtime.t ->
  stop:Vtime.t ->
  period:Vtime.t ->
  burst:int ->
  unit ->
  campaign
(** @raise Invalid_argument on an empty window, or a non-positive
    period or burst. *)

type counters = {
  mutable flood_frames : int;
  mutable storm_frames : int;
  mutable forged_frames : int;
  mutable replayed_frames : int;
  mutable framed_replays : int;
  mutable framed_floods : int;
}
(** Frames the actor actually injected, per arm — bumped by the actor
    through {!record}, so the run report attributes hostile traffic
    the same way {!Faultplan} attributes drops. *)

val fresh_counters : unit -> counters
val counters_named : counters -> (string * int) list
val record : counters -> arm -> int -> unit

type t

val create : rng:Prng.Splitmix.t -> unit -> t
(** Splits a private stream off [rng]: the plans this intruder draws
    depend only on the seed and the order of {!plan} calls. *)

val counters : t -> counters

val plan : t -> campaign -> (Vtime.t * int) list
(** The campaign's firing schedule, oldest first: one [(time, burst)]
    pair per period tick in [\[start, stop\]], each displaced by a
    seeded jitter of at most a quarter [period] (clamped to [start]).
    Deterministic per seed. *)
