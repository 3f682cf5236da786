(** Bounded model of the store-and-forward delivery plane.

    One leader, one member who goes offline once, a bounded run of
    queued rekey notices, one-or-more group rekeys, and a Dolev-Yao
    intruder who records every drained frame and can replay any of
    them at any later point. The admin channel's nonce chain is
    deliberately erased — the member's cumulative delivery floor is
    the {e only} duplicate guard — so the model faces a strictly
    stronger adversary than the implementation.

    Checked obligations (see {!reports}):
    - {b no delivery applied twice} — the A3-style replay obligation
      re-stated at the delivery layer: no combination of legitimate
      re-drains (at-least-once redelivery) and intruder replays makes
      the member apply one queued seq twice;
    - {b delivery never regresses member epoch} — neither fresh,
      re-sealed, nor stale-flagged drains ever move the member's
      installed group-key epoch backward;
    - {b stale deliveries apply nothing} — the deliver-stale policy
      arm is observability only;
    - {b delivery surface exercised} — non-vacuity: replays actually
      fired and were deduped, an aged entry actually re-sealed, and
      both beyond-window policy arms actually ran.

    Explored exhaustively (BFS over canonicalised states) within the
    bounds given to {!explore}; [make verify] gates CI on every report
    holding. *)

type bounds = {
  max_seq : int;  (** deliveries the leader may queue *)
  max_epoch : int;  (** highest group epoch (initial epoch is 1) *)
  width : int;  (** epoch-window width of the re-seal policy *)
}

type state
(** Joint leader/member/intruder state: group epoch, member
    online/epoch/floor, pending queue, durable ack floor, the set of
    frames the intruder has recorded, and the applied-seq log. *)

type move
(** A protocol step (offline, online, queue, rekey, drain under each
    policy arm, cumulative ack) or the intruder delivering a recorded
    frame. *)

type result
(** The explored transition system. *)

val explore : ?bounds:bounds -> unit -> result
(** Exhaustive breadth-first exploration from the initial state. The
    default bounds are [{ max_seq = 2; max_epoch = 3; width = 1 }] —
    two queued deliveries, two rekeys, window of one epoch: enough to
    age an entry past the window and race a replay against a
    re-seal. *)

val state_count : result -> int
val edge_count : result -> int

val reports : result -> Explore.report list
(** The four obligations above, with counterexample traces (move
    sequences from the initial state) attached to any violation. *)
