(** A bounded model of the {e recovery plane} — journal replication,
    warm promotion, and term-based demotion between the old primary
    [L], its successor [S] and one member [A], against a Dolev-Yao
    intruder [E] who owns the wire.

    Where {!Model} verifies the member-facing protocol (§4–§5 of the
    paper), this model checks the obligations the
    demotion/reconciliation design adds on top of it:

    - {b no resurrection}: once [A]'s session is closed durably, no
      combination of replayed or fabricated journal, replica or
      demotion frames ever puts the {e live} source (the manager
      sourcing at the highest minted term) back in session with [A] —
      a superseded zombie's lingering belief is split-brain residue
      that demotion clears at the heal, not a resurrection;
    - {b no epoch regression}: [A]'s group-key epoch never decreases
      along any transition — in particular not when a successor
      promotes from a replica prefix that predates the last
      [Epoch_bump] (the vault floor plus the member's own staleness
      guard close that hole);
    - {b no forged/replayed demotion}: every edge on which a sourcing
      manager drops to a backup is justified by a frame sealed under
      [K_r] that is bound to the victim's {e current} term and carries
      a strictly higher term that was {e genuinely minted} by an
      honest promotion before that edge. [E] can synthesize
      perfectly-bound frames under every key except [K_r], and can
      replay every authentic frame ever recorded — none of it demotes
      anyone.

    Modelling choices (stated in the implementation header too): [K_r]
    is never oopsed (managers are inside the paper's trust boundary);
    a genuine source's close is durable at the recovery plane
    atomically (an asynchronously lost close is a fail-stop durability
    loss, not an intruder capability — the model verifies no intruder
    action loses one); a superseded zombie's closes and bumps land in
    the divergent suffix that demotion discards and never touch [A]'s
    live session.

    Obligations are returned as {!Explore.report} values so the
    CLI's [verify] command prints and gates on them uniformly; a
    fourth report checks {e non-vacuity} (forgeries and replays were
    actually fired and rejected, and a genuine heal-path demotion is
    reachable). *)

type bounds = { max_epoch : int; max_minted : int }

type state
type move
type result

val explore : ?bounds:bounds -> unit -> result
(** Exhaustive BFS of the bounded instance. The default bounds are 3
    epochs and 3 mintable terms — a few thousand states, explored in
    well under a second. *)

val state_count : result -> int
val edge_count : result -> int

val reports : result -> Explore.report list
(** The three obligations plus the non-vacuity check, in that order.
    Violations carry pretty-printed counterexample traces. *)
