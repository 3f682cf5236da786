(** Symbolic model of the {e legacy} Enclaves protocol (§2.2) — the
    formal counterpart of the paper's informal attack analysis (§2.3).

    Where {!Model} verifies that the improved protocol satisfies the
    §3.1 requirements, this model demonstrates that the legacy
    protocol does {e not}: exhaustive exploration reaches states
    violating each requirement, and {!findings} returns one concrete
    symbolic attack trace per weakness:

    - {b W1 (attack A1)} — the honest member reaches [Denied] although
      the leader never sent a denial: the pre-auth [ConnectionDenied]
      is plaintext, so the intruder mints one.
    - {b W2 (attack A2)} — the member's view drops [B] although the
      leader never sent a [MemRemoved]: the event is sealed only under
      the group key, which the insider holds.
    - {b W3 (attack A3)} — the member's group-key epoch decreases: a
      [NewKey] message carries no freshness evidence, so an old one
      (still in the trace — replay is the default in this model
      family) is accepted again after a rekey.
    - {b W4 (attack A4)} — the leader closes the member's session
      although the member never asked: the close request is plaintext.

    One positive result is checked too: the legacy {e authentication}
    handshake is still regular, so [P_a] secrecy holds — the paper's
    §2.3 weaknesses are group-management weaknesses, not a loss of the
    long-term key. The intruder here is an {e insider}: its initial
    knowledge includes the group keys of the epochs during which it
    was a member ([insider_epochs]). *)

type bounds = {
  max_epoch : int;  (** Rekeys performed by the leader. *)
  insider_epochs : int;  (** The insider holds [Kg 1 .. Kg insider_epochs]. *)
  max_nonces : int;
}

val default_bounds : bounds
(** Three epochs, insider through epoch 2. *)

type member_state =
  | M_not_connected
  | M_waiting_ack
  | M_waiting_auth2 of int  (** nonce [N1] *)
  | M_connected of { epoch : int; sees_b : bool }
  | M_denied

type leader_state =
  | L_idle
  | L_waiting_auth1
  | L_waiting_auth3 of int  (** nonce [N2] *)
  | L_in_session

type state = {
  mem : member_state;
  lead : leader_state;
  lead_epoch : int;
  trace : Event.Set.t;
  next_nonce : int;
}

type result

val explore : ?bounds:bounds -> unit -> result
val state_count : result -> int

type finding = {
  weakness : string;  (** "W1".."W4" or "Pa-secrecy" *)
  description : string;
  violated : bool;  (** true = the attack state is reachable *)
  trace : string list;  (** one rendered step per line, empty if none *)
}

val findings : ?bounds:bounds -> result -> finding list
(** The four weaknesses followed by the [P_a]-secrecy check. *)

val as_expected : finding -> bool
(** The outcome §2.3 predicts: each weakness's attack is found
    ([violated = true]) and [P_a] secrecy holds ([violated = false]). *)
