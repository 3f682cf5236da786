(** Offline trace auditing — intrusion {e detection} to complement the
    protocol's intrusion {e tolerance}.

    The leader's operator (who legitimately holds every member's
    long-term key) can replay a recorded network trace after the fact
    and re-derive what happened: which handshakes completed, which
    session keys were established, which admin frames were genuine,
    and — the interesting part — which delivered frames were {e
    replays} (byte-identical admin frames delivered more than once) or
    {e forgeries} (frames that fail authentication under the session
    key in force at the time). The §3.2 protocol guarantees members
    reject these; the auditor makes the attack attempts visible
    instead of silent.

    The auditor is a pure function of the trace and the key directory:
    it never touches live protocol state, so it can run on archived
    traces. *)

type anomaly =
  | Replayed_admin of { recipient : Types.agent; occurrences : int }
      (** One admin frame delivered [occurrences] (>1) times. *)
  | Forged_frame of { recipient : Types.agent; label : Wire.Frame.label }
      (** A delivered protocol frame that fails authentication under
          the session key the auditor derived for that member. *)
  | Stale_rekey of { recipient : Types.agent; epoch : int; current : int }
      (** An authentic, first-seen [New_group_key] delivery whose
          epoch does not exceed the highest epoch already delivered to
          that member — a replayed or misordered rekey that a correct
          member must not install. Byte-identical duplicates are
          reported as [Replayed_admin] only. *)
  | Stale_delivery of { recipient : Types.agent; seq : int }
      (** A store-and-forward record drained beyond the epoch-window
          policy's width and delivered flagged stale — legitimate
          protocol behaviour (the member applies no state effect), but
          always surfaced by the auditor so an operator can see which
          queued traffic outlived its epoch. *)
  | Handshake_flood of {
      claimed : Types.agent;
      attempts : int;
      via_socket : int;
      via_foreign : int;
      via_wire : int;
    }
      (** More than 10 [AuthInitReq] frames delivered to the leader
          under one claimed sender — pre-auth flood pressure on the
          unauthenticated surface. The frames need not be valid; the
          signal is volume. [attempts] is split by the
          injection path the trace vouches for: the claimed sender's
          own socket, some other member's socket, or the raw wire —
          telling an operator whether the named member or the wire is
          the problem. *)
  | Framing_suspected of {
      victim : Types.agent;
      off_path : int;
      on_path : int;
    }
      (** Over 10 leader-bound frames claiming a directory member,
          dominated by frames that member {e provably never
          originated} (delivered over someone else's socket or the raw
          wire). Whatever evidence that traffic generated belongs to
          the injector, not the member — the offline signature of a
          framing campaign. *)
  | Quarantine of { suspect : Types.agent }
      (** The leader broadcast a ["quarantined:<suspect>"] containment
          notice — the online sentinel expelled a suspected insider.
          Reported once per suspect, however many members heard it. *)
  | Degraded_mode of { mode : string }
      (** The leader broadcast a ["degraded:<mode>"] notice — storage
          pressure pushed it down the degraded-mode ladder
          (durability-degraded, memory-only or shedding). Reported
          once per announced rung; the ["healthy"] all-clear after a
          re-arm is not an anomaly. *)

val pp_anomaly : Format.formatter -> anomaly -> unit

type report = {
  handshakes_completed : int;  (** AuthKeyDist frames whose key was derived. *)
  admin_delivered : int;  (** Genuine admin deliveries (incl. repeats). *)
  closes : int;  (** Authentic ReqClose frames observed. *)
  anomalies : anomaly list;
}

val clean : report -> bool
(** No anomalies. *)

val run :
  directory:(Types.agent * string) list ->
  leader:Types.agent ->
  Netsim.Trace.t ->
  report
(** [run ~directory ~leader trace] audits every [Delivered] entry of
    the trace in order. Sessions are tracked per member: an
    [AuthKeyDist] opened under the member's [P_a] installs the session
    key the subsequent frames are checked against; an authentic
    [ReqClose] retires it. *)
