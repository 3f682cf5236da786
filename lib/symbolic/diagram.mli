(** The verification diagram of Figure 4, reconstructed and checked
    exhaustively.

    The paper publishes five of the diagram's predicates ([Q1], [Q2],
    [Q3], [Q4], [Q12]); the complete list lives in an SRI technical
    report. We rebuild the full diagram the way §5.3 describes — "by
    examining the successive transitions A or L can execute" — as one
    box per joint shape of [(usr_A, lead_A)], with each box's invariant
    combining the published trace conditions and, for the
    session-teardown boxes the paper does not print, the natural
    close-pending conditions.

    {!all} runs three checks, each discharging a §5.3
    proof obligation on the bounded instance:
    - coverage — every reachable state lies in some box and
      satisfies that box's invariant (the paper's "[q0] satisfies
      [Q1]" plus the per-box induction conclusion);
    - edges — every explored transition goes from box [i] to
      [i] itself or one of its diagram successors (the
      [Q_i ∧ q → q' ⇒ Q_{i1}(q') ∨ …] obligation), and every intruder
      transition is a self-loop;
    - intruder obligations — semantically, via {!synthesizable}
      ({!Closure.in_synth} on the candidates), the intruder cannot
      synthesize any field whose absence a box invariant asserts: it
      can only replay them (the "agents other than A and L leave
      [Q_i] invariant" argument). *)

type box =
  | Q1  (** (NotConnected, NotConnected) *)
  | Q2  (** (WaitingForKey, NotConnected) *)
  | Q3  (** (WaitingForKey, WaitingForKeyAck) *)
  | Q4  (** (Connected, WaitingForKeyAck) *)
  | Q5  (** (Connected, Connected) *)
  | Q6  (** (Connected, WaitingForAck) *)
  | Q7  (** (NotConnected, Connected) — close pending *)
  | Q8  (** (NotConnected, WaitingForAck) — close pending *)
  | Q9  (** (WaitingForKey, Connected) — rejoin while close pending *)
  | Q10  (** (WaitingForKey, WaitingForAck) — rejoin while close pending *)
  | Q12  (** (NotConnected, WaitingForKeyAck) *)

val all_boxes : box list
(** The eleven boxes, in diagram order. *)

val box_name : box -> string
val classify : Model.state -> box option
(** [None] for the one unreachable shape, (Connected, NotConnected). *)

val box_invariant : Model.state -> box -> bool
(** Does the state satisfy the box's predicate (trace conditions
    included)? *)

val synthesizable : ?config:Model.config -> Model.state -> Field.t list
(** The intruder obligation's candidates at [q] that lie in
    [Synth(Know(E, q) ∪ {its first fresh nonce})], in check order:
    [{A,L}_Ka], then [{A,L,N,N'}_Ka] for every pair of pool nonces,
    where [Ka] is the leader's session key ([[]] when it holds none).
    The obligation fails on any of them not in [Parts(trace(q))]. It is
    {!Closure.in_synth} specialised to those shapes. *)

val visit_counts : Explore.result -> (string * int) list
(** States per box, for reporting. *)

val all : ?config:Model.config -> Explore.result -> Invariants.report list
(** The three checks above, in this order. *)
