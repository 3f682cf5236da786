(** Warm-standby journal replication — the authenticated channel that
    keeps every backup manager holding a near-live copy of the
    primary's durable journal, so failover can be {e warm}.

    The {!Source} runs on the primary: it subscribes to the journal's
    mutation hook ({!Journal.set_observer}) and ships each durable
    change — an appended record chunk or a full-image publish — to
    every backup as a sealed [Repl_record] frame carrying the
    primary's {e term} (incarnation counter) and a per-term sequence
    number. The {!Replica} runs on each backup: it applies frames
    strictly in order, persists the replica bytes through the backup's
    own {!Store.Backend}, acknowledges cumulatively, and requests a
    re-send when it detects a gap. Every term opens with a full-image
    snapshot at sequence 0, so one frame resynchronises a backup that
    just adopted a new primary, and journal compaction periodically
    replaces the image, which bounds the source's re-send log.

    {2 Trust argument}

    Frames are sealed under the shared manager key [K_r] with the
    frame header bound as AEAD associated data:

    - {b forged} frames (wrong key, spliced header, rewritten sender,
      recipient swapped to another backup) fail to open and are
      counted, never applied;
    - {b replayed} frames are inert — an in-order duplicate merely
      re-acknowledges, an old sequence or old heartbeat frontier is
      counted and dropped, and nothing moves the replica backwards;
    - {b stale-term} frames from a superseded primary are counted,
      dropped, and answered with a sealed [Repl_stale] demotion
      signal, so a dead incarnation's traffic cannot corrupt a
      replica that has already adopted the successor — and the zombie
      learns it is one.

    Only frames that advance the replica (or prove a future frontier)
    register as primary liveness ({!Replica.take_activity}), so
    replayed heartbeats cannot indefinitely suppress the backup's
    promotion watchdog.

    {2 Demotion}

    A source that receives {e authentic} evidence of a strictly higher
    term — a higher-term [Repl_record] reaching it directly
    ({!Source.handle_peer_record}), or a [Repl_stale] notice bound to
    its current term ({!Source.handle_frame}) — reports itself
    superseded exactly once through the [on_superseded] callback; the
    failover harness then demotes it (detach, truncate the journal to
    {!Source.acked_prefix}, re-attach as a {!Replica} at the new
    term). The evidence cannot be fabricated: both signal kinds are
    sealed under [K_r], and an authentic frame carrying term [T]
    proves [T] was genuinely minted by an honest promotion. It cannot
    be replayed either: a [Repl_stale] is acted on only when its
    [stale_term] equals the receiving source's {e current} term, so a
    notice recorded against an earlier incarnation is counted as
    replayed and dropped. A forged "you are stale" therefore never
    demotes a live primary. *)

type counters = {
  mutable records_shipped : int;  (** Append frames the primary put on the wire. *)
  mutable records_acked : int;  (** Ack frames the primary accepted. *)
  mutable snapshots_shipped : int;
      (** Full-image frames (creation, compaction, catch-up). *)
  mutable heartbeats_shipped : int;
  mutable gap_fetches : int;
      (** Backup-detected gaps that triggered a re-send request. *)
  mutable rejected_forged : int;  (** Replication frames whose seal failed to open. *)
  mutable rejected_replayed : int;  (** Duplicate or out-of-window sequence numbers. *)
  mutable rejected_stale : int;  (** Frames from a superseded primary term. *)
  mutable stale_notices : int;
      (** [Repl_stale] demotion signals sent back at a superseded
          source's traffic. *)
  mutable stale_sourcing_stopped : int;
      (** Times a source stopped shipping because an authentic frame
          proved a strictly higher term exists. *)
  mutable demotions : int;
      (** Sources that stood down and re-attached to the live source
          as a catching-up replica. *)
  mutable warm_promotions : int;  (** Backups promoted from a usable replica. *)
  mutable cold_promotions : int;  (** Promotions that fell back to cold restart. *)
}
(** Shared mutable counters: the failover harness passes one instance
    to the source and every replica (and bumps the promotion fields
    itself), so a run's replication activity aggregates in one
    place. *)

val fresh_counters : unit -> counters

val named : counters -> (string * int) list
(** Labelled counters for {!Netsim.Stats.pp_named}, in declaration
    order. *)

module Source : sig
  type t

  val create :
    self:Types.agent ->
    backups:Types.agent list ->
    term:int ->
    key:Sym_crypto.Key.t ->
    rng:Prng.Splitmix.t ->
    send:(Wire.Frame.t -> unit) ->
    journal:Journal.t ->
    ?on_superseded:(term:int -> primary:Types.agent -> unit) ->
    ?counters:counters ->
    unit ->
    t
  (** Attach a replication source to [journal]: subscribes to its
      mutation hook and immediately ships the journal's current image
      to every backup as the term's sequence-0 snapshot. [send] puts a
      frame on the wire (the harness posts it into the simulated
      network). A promoted backup mints a strictly higher term, unique
      per promotion (see {!Failover}). [on_superseded] fires at most
      once, when authentic evidence of a strictly higher term arrives
      — the harness's cue to demote this source. The re-send op log
      is bounded by journal compaction alone: between compactions it
      grows with a lagging backup's partition. *)

  val detach : t -> unit
  (** Unsubscribe from the journal (crash or demotion). *)

  val ship_queue_image : t -> file:string -> string -> unit
  (** Ship a delivery-queue durable image (see {!Delivery.set_ship}) to
      every backup as a [Repl_queue] op at the next stream sequence.
      The source remembers the latest image per file and re-ships it
      whenever journal compaction empties the op log, so the resend
      window always covers every offline member's backlog. *)

  val ship_suspicion : t -> string -> unit
(** Ship a sentinel suspicion snapshot (see {!Sentinel.set_ship}) to
      every backup as a [Repl_suspicion] op at the next stream
      sequence. The source remembers the latest snapshot and re-ships
      it after journal compaction, so a promoted successor always sees
      the most recent containment state — a suspect cannot launder its
      record by crashing the leader. *)

  val heartbeat : t -> unit
  (** Ship a liveness heartbeat carrying the current sequence frontier
      to every backup — lets an idle-period backup detect both primary
      death (silence) and lost appends (frontier gap). *)

  val handle_frame : t -> Wire.Frame.t -> unit
  (** Process a backup's [Repl_ack] or [Repl_fetch] (a fetch re-sends
      from the requested sequence, or from the image snapshot when the
      request predates the compaction floor, to that backup only) — or
      a [Repl_stale] demotion signal, which triggers [on_superseded]
      iff it opens under [K_r], names this source, binds this source's
      {e current} term as [stale_term], and carries a strictly newer
      superseding term. Anything else is counted as forged or
      replayed and dropped. *)

  val handle_peer_record : t -> Wire.Frame.t -> unit
  (** A [Repl_record] delivered to a manager that is itself sourcing:
      a lower term draws a [Repl_stale] notice back at the zombie
      sender (and counts [rejected_stale]); an authentic strictly
      higher term triggers [on_superseded] — we are the zombie. *)

  val term : t -> int

  val superseded : t -> bool
  (** True once authentic higher-term evidence has arrived (the
      [on_superseded] callback has fired). *)

  val acked_prefix : t -> int
  (** Byte length of the longest journal prefix some backup
      acknowledged under this term — what a demoting source keeps when
      discarding its divergent suffix. When the best ack predates the
      last compaction the cut lands at the image boundary (acked
      records live inside the folded image; never below one). 0 when
      nothing was ever acked this term. *)

  val lag : t -> (Types.agent * int) list
  (** Per-backup lag in records: frontier minus acked. *)

  val stats : t -> counters
  (** A copy of the shared counters. *)
end

module Replica : sig
  type t

  val create :
    self:Types.agent ->
    primary:Types.agent ->
    key:Sym_crypto.Key.t ->
    rng:Prng.Splitmix.t ->
    ?disk:Store.Backend.t ->
    ?term:int ->
    ?catching_up:bool ->
    ?counters:counters ->
    unit ->
    t
  (** An empty replica expecting [primary]'s stream. With [disk],
      every applied op is persisted to the file ["journal_replica"]
      (and each queue image to its own file) before the ack leaves: appends with
      {!Store.Backend.write_synced}, journal and queue images with
      {!Store.Backend.publish}. The replica follows term adoptions
      automatically, so [primary] is only the initial expectation.
      [term] (default 0) is the floor below which streams are rejected
      as stale — a freshly demoted manager seeds it with the term that
      demoted it, so replays of its own dead stream cannot re-adopt,
      and sets [catching_up] (default [false]): such a replica cannot
      promote until the live term's first snapshot has landed (see
      {!tick}). *)

  val handle_frame : t -> Wire.Frame.t -> Wire.Frame.t list
  (** Apply one [Repl_record] frame; returns the ack/fetch frames to
      send back. Forged and replayed frames return [] (or a re-ack)
      and leave the replica bytes untouched; a stale-term record
      additionally draws a [Repl_stale] demotion signal back at its
      superseded sender. *)

  val contents : t -> string
  (** The replica bytes — what promotion hands to {!Journal.recover}. *)

  val queue_images : t -> (string * string) list
  (** Latest delivery-queue image per file (sorted by file name),
      mirrored from the primary's [Repl_queue] ops — what promotion
      hands to {!Delivery.of_images} so the successor keeps draining
      offline members' backlogs. *)

  val suspicion : t -> string option
  (** Latest sentinel suspicion snapshot mirrored from the primary's
      [Repl_suspicion] ops — what promotion hands to
      {!Sentinel.import} so the successor keeps quarantines. *)

  val term : t -> int
  val expected : t -> int

  val take_activity : t -> bool
  (** True iff a liveness-proving frame arrived since the last call
      (reads destructively) — the promotion watchdog's input. *)

  val tick : t -> period:Netsim.Vtime.t -> after:Netsim.Vtime.t -> bool
  (** One period of the promotion watchdog: true iff the replica should
      promote now, after [after] of silence counted in periods. A
      liveness-proving frame ({!take_activity}) restarts the count and
      ends a catch-up once the live term's first snapshot landed. *)

  val quiet : t -> Netsim.Vtime.t
  (** The primary's silence so far, a whole number of {!tick} periods. *)

  val catching_up : t -> bool
  (** A demoted replica still awaiting the live term's first snapshot
      (see [catching_up] in {!create}). *)

  val stats : t -> counters
  (** A copy of the shared counters. *)
end
