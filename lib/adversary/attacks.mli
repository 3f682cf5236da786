(** The paper's insider attacks (§2.3), scripted end-to-end over the
    network simulator.

    Each attack runs the same scenario twice — once against the legacy
    protocol (§2.2) and once against the improved protocol (§3.2) —
    and reports whether the attacker achieved its goal. The paper's
    headline claim is the outcome matrix: every attack succeeds against
    the legacy protocol and fails against the improved one.

    - {b A1} [denial_of_service] — an outsider forges a
      [ConnectionDenied] to block a legitimate join (the legacy
      pre-auth exchange is unauthenticated; the improved protocol has
      no pre-auth exchange to poison).
    - {b A2} [forge_mem_removed] — an insider (current member) forges
      a "member left" notification to another member using the shared
      group key, corrupting that member's view of the group.
    - {b A3} [rekey_replay] — a past member replays an old
      key-distribution message to roll a member back to a group key
      the attacker still holds, then reads that member's traffic.
    - {b A4} [forced_disconnect] — an outsider forges the close
      request to eject a member (legacy [LegacyReqClose] is
      plaintext; the improved [ReqClose] is sealed under [K_a], and a
      replay from an earlier session fails because the session key
      changed).

    Attacks use only attacker-available material: wire observations
    (via the network tap), keys an insider legitimately held, and
    expired session keys (the paper's Oops events). *)

type protocol = Legacy | Improved

type outcome = {
  attack : string;  (** "A1".."A4" *)
  protocol : protocol;
  succeeded : bool;  (** Did the {e attacker} win? *)
  detail : string;  (** Human-readable evidence. *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val denial_of_service : ?seed:int64 -> protocol -> outcome
val forge_mem_removed : ?seed:int64 -> protocol -> outcome
val rekey_replay : ?seed:int64 -> protocol -> outcome
val forced_disconnect : ?seed:int64 -> protocol -> outcome

val all : ?seed:int64 -> unit -> outcome list
(** Run every attack against both protocols: the full §2.3 matrix. *)

val as_expected : outcome -> bool
(** The outcome §2.3 predicts for one run: the attack succeeds against
    [Legacy] and fails against [Improved]. *)

val matrix_ok : outcome list -> bool
(** The paper's expected shape: all eight runs {!as_expected}, so all
    four succeed against [Legacy] and none against [Improved]. *)
