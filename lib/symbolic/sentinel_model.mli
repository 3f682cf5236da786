(** A bounded model of the sentinel's {e containment ladder} under a
    framing campaign — injection-path attribution, the corroboration
    gate, the liveness challenge, decay, and suspicion-snapshot
    merging, against a Dolev-Yao wire attacker [E] who owns the wire.

    Three principals are scored: [V], an honest responsive member
    whose own socket produces a {e bounded} amount of single-class
    on-path noise (the model's encoding of the calibration invariant
    that honest traffic alone stays below the quarantine threshold —
    pinned empirically by the chaos suite, assumed here); [M], a
    compromised insider whose hostile frames arrive over its own
    socket and span two evidence classes; and [W], the wire
    pseudo-peer charged on-path for every raw injection. [E] injects
    frames claiming [V] at will (off-path evidence, modelled at {e
    full} weight — the implementation discounts it, so the modelled
    attacker is strictly stronger) until the wire itself is
    quarantined, and replays shipped suspicion snapshots at a
    successor in any order.

    Obligations, returned as {!Explore.report} values so the CLI's
    [verify] command gates on them uniformly:

    - {b honest responsive member never quarantined}: no interleaving
      of framing injections, honest slips, decay ticks, challenges and
      attestations reaches a state with [V] at Quarantined or above;
    - {b levels never ratchet down}: on every edge — including decay,
      attestation relief and merges — each principal's level and the
      successor's imported level are monotone;
    - {b quarantine requires corroborated evidence}: every edge that
      first lifts a principal to Quarantined lands in a state whose
      on-path evidence is corroborated (two live classes, or on-path
      volume alone past the threshold);
    - {b merge never loses an escalation}: a snapshot import leaves
      the successor at or above both its prior level and the imported
      snapshot, under arbitrary stale replay;
    - {b non-vacuity}: the corroboration gate really clamped a raw
      quarantine, a challenge/attestation round-trip fired, the
      insider and the wire really reach quarantine, and snapshots
      really propagate an escalation to the successor. *)

type bounds = {
  rate_limit_at : int;
  quarantine_at : int;
  expel_at : int;
  slip_cap : int;
      (** Bound on [V]'s honest on-path noise; the calibration
          invariant requires it below [quarantine_at]. *)
  off_cap : int;  (** Cap on [V]'s off-path accumulator. *)
  cls_cap : int;  (** Per-class cap for the insider and the wire. *)
}

type state
type move
type result

val explore : ?bounds:bounds -> unit -> result
(** Exhaustive BFS of the bounded instance. The default bounds are
    thresholds 1/3/5, slips ≤ 2, scores ≤ 4–5 — tens of thousands of
    states, explored in a few seconds. *)

val state_count : result -> int
val edge_count : result -> int

val reports : ?bounds:bounds -> result -> Explore.report list
(** The four obligations plus the non-vacuity check, in that order,
    judged at [bounds] (default: those of {!explore}). Violations carry
    pretty-printed counterexample traces. *)
