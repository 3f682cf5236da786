(** The behavioural guarantees of §5.4, read off the explored state
    space.

    These are the paper's requirements from §3.1, derived in §5.4 from
    the verification diagram:
    - {b Proper distribution of group-management messages}: messages
      accepted by [A] were sent by [L], in order, without duplication —
      [rcv_A] is a prefix of [snd_A] in every reachable state.
    - {b Proper user authentication}: the [n]-th member acceptance by
      [L] is preceded by the [n]-th join request from [A] — the
      acceptance count never exceeds the request count.
    - {b Agreement}: whenever both [A] and [L] are Connected they hold
      the same session key and the same latest nonce.
    - {b Possession}: whenever [A] holds a session key (is connected),
      that key is in use at the leader ([InUse]). *)

val prefix_property : Explore.result -> Invariants.report
val proper_authentication : Explore.result -> Invariants.report
val agreement : Explore.result -> Invariants.report
val possession : Explore.result -> Invariants.report
val no_duplicates : Explore.result -> Invariants.report
(** [rcv_A] never contains the same admin payload twice (distinct
    atoms by construction at the leader, so duplication would mean
    replay acceptance). *)

val all : Explore.result -> Invariants.report list
(** The five checks above, in this order. All five are per-state. *)
