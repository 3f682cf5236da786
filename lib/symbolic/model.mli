(** The global state-transition system of §4: honest user [A]
    (Figure 2), honest leader [L] (Figure 3, the component facing
    [A]), and a Dolev-Yao intruder standing for every other agent.

    {2 Faithfulness}

    - Messages are never consumed: the trace only grows, and honest
      receive transitions are enabled by the {e existence} of a
      matching message — Paulson's inductive model, in which replay is
      the default and freshness must be proven.
    - The intruder sends anything in [Gen(E, q) = Synth(Know(E,q) ∪
      FreshFields(q))]; [Know(E,q) = Analz(I(E) ∪ trace(q))].
    - [Oops(K_a)] fires when the leader closes a session: the expired
      session key becomes public (§4.1).

    {2 Finitization (documented deviations)}

    - Nonces, session keys and admin payload atoms come from bounded
      pools; joins and per-session admin messages are bounded by
      {!config}. Exploration is exhaustive within these bounds.
    - Fresh honest atoms are allocated least-unused — sound by
      symmetry, because a fresh atom by definition occurs nowhere in
      [Parts(trace)] and unused atoms are interchangeable.
    - The intruder owns a disjoint pool of fresh atoms (indices
      offset by {!intruder_atom_base}), so its allocations cannot
      collide with honest ones — again the paper's semantics, where
      fresh means globally unused.
    - Intruder injections are {e pattern-directed}: only messages some
      honest automaton accepts in the current state are injected.
      Messages that match no acceptor leave every honest state
      unchanged and add only intruder-synthesizable fields to the
      trace, so they are stutter steps; and because session keys are
      never reused, a message unacceptable now is unacceptable
      forever. The diagram checker separately verifies, semantically
      via {!Closure.in_synth}, that the intruder cannot synthesize any
      field violating a box predicate — the paper's "other agents
      leave [Q_i] invariant" obligation. *)

type mutation =
  | No_admin_freshness
      (** [A] accepts any nonce in an [AdminMsg] — the legacy §2.2
          behaviour. Replays and duplicates get through; the §5.4
          checkers must catch it. *)
  | Leak_pa
      (** [P_a] is in the intruder's initial knowledge — a compromised
          long-term key. Authentication must break. *)
  | No_close_auth
      (** [ReqClose] is unauthenticated plaintext, as in §2.2 — anyone
          can close [A]'s session, triggering a premature Oops. *)

type config = {
  max_nonces : int;  (** Honest nonce pool size. *)
  max_keys : int;  (** Honest session-key pool size. *)
  max_admin : int;  (** Max admin messages per session. *)
  max_joins : int;  (** Max join attempts by [A]. *)
  max_data : int;  (** Distinct admin payload atoms. *)
  intruder_fresh : int;  (** Intruder's fresh-atom budget. *)
  mutations : mutation list;
      (** Deliberate protocol weakenings for checker-sensitivity
          tests; empty for the faithful improved protocol. *)
}

val default_config : config
(** Two sessions, two admin messages per session — enough to exercise
    rejoin, rekey-style admin traffic, and post-Oops replay. *)

val intruder_atom_base : int

type user_state =
  | U_not_connected
  | U_waiting_for_key of int  (** nonce [N1] *)
  | U_connected of int * int  (** latest own nonce [Na], session key index *)

type leader_state =
  | L_not_connected
  | L_waiting_for_key_ack of int * int  (** nonce [Nl], key index *)
  | L_connected of int * int  (** latest [A]-nonce [Na], key index *)
  | L_waiting_for_ack of int * int  (** nonce [Nl], key index *)

type state = {
  usr : user_state;
  lead : leader_state;
  trace : Event.Set.t;
  snd : int list;  (** [snd_A]: admin atoms sent by [L], oldest first. *)
  rcv : int list;  (** [rcv_A]: admin atoms accepted by [A]. *)
  joins : int;  (** AuthInitReq messages sent by [A], ever. *)
  accepts : int;  (** AuthAckKey messages accepted by [L], ever. *)
  next_nonce : int;
  next_key : int;
  next_data : int;
  i_nonces : int;  (** Intruder fresh nonces consumed. *)
  i_keys : int;
}

type move =
  | A_join
  | A_recv_keydist
  | A_recv_admin
  | A_leave
  | L_recv_init
  | L_recv_keyack
  | L_send_admin
  | L_recv_ack
  | L_recv_close
  | E_inject of Event.label

val pp_move : Format.formatter -> move -> unit
val pp_user_state : Format.formatter -> user_state -> unit
val pp_leader_state : Format.formatter -> leader_state -> unit

val initial : state

val canon : state -> string
(** The state's identity as a prefix-free byte string: [canon a =
    canon b] iff the two states have the same fields, comparing traces
    by their events. *)

val intruder_knowledge : ?config:config -> state -> Field.Set.t
(** [Know(E, q)]: Analz closure of the intruder's initial knowledge,
    its allocated fresh atoms, and the trace contents. Pass the
    configuration when mutations (e.g. [Leak_pa]) extend the initial
    knowledge. *)

val in_use : state -> int -> bool
(** [in_use q k] — the paper's [InUse(Ka_k, q)]: the leader's local
    state mentions session key [k]. *)

val successors : config -> state -> (move * state) list
(** Every enabled transition: honest moves of [A] and [L], plus the
    pattern-directed intruder injections. *)
