(** Durable leader journal — the leader's trust-critical state
    (session establishments and closes, group-key epoch bumps) as a
    {!Store.Log} instance: magic ["EJNL"], snapshot compaction every 256
    records by default, file ["journal"].

    The journal is what makes leader failover {e warm}: after a crash
    the replacement process replays the surviving bytes, recovers the
    last consistent prefix, and re-validates each recovered session
    with a live challenge over the journalled [K_a] before trusting it
    (see {!Leader.recover}). Cold failover trusts no state of the dead
    manager; warm failover trusts none of it {e until it answers a
    challenge under the key only that member and the leader hold}.

    The format, the totality of [replay], compaction, the degraded-mode
    switch and the write-through are the engine's; see {!Store.Log}. *)

type record =
  | Session_established of { member : Types.agent; key : string }
      (** A member completed the §3.2 handshake; [key] is the raw
          session key [K_a]. *)
  | Session_closed of { member : Types.agent }
      (** The session ended (leave, expulsion, or recovery
          fallback) — the journalled [K_a] is no longer trusted. *)
  | Epoch_bump of { key : string; epoch : int }
      (** A fresh group key [K_g] was generated for [epoch]. *)
  | Snapshot of state
      (** The folded state of everything before this record. *)

and state = {
  sessions : (Types.agent * string) list;
      (** Live sessions, sorted by member name; raw [K_a] bytes. *)
  group_key : (string * int) option;  (** Raw [K_g] bytes and epoch. *)
  next_epoch : int;
}

include Store.Log.S with type record := record and type state := state
(** [state_of_records]: a [Snapshot] replaces the accumulated state;
    an establishment, close or bump updates it. The warm-standby
    replication source subscribes to {!set_observer} to ship every
    durable change to the backup managers. *)
