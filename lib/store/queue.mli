(** Durable per-member delivery queue — store-and-forward records as
    a {!Log} instance: magic ["EDLQ"], snapshot compaction every 64
    records by default, file ["queue"].

    The leader keeps one of these per offline member: traffic that
    would otherwise be dropped is [push]ed (durable when it returns);
    when the member reconnects and acknowledges drained records the
    [ack] floor advances and compaction reclaims everything below it.
    The engine is the leader journal's, so the same crash story holds:
    any tail damage costs at most the records from the damage onward,
    and [replay] is total on arbitrary bytes. The record counter in
    each frame is distinct from the delivery sequence numbers carried
    inside [Push] records. *)

type entry = { seq : int; epoch : int; payload : string }
(** One queued message: its delivery sequence number (assigned by
    {!push}, monotone per queue, never reused), the group epoch it was
    sealed under when queued, and the opaque payload bytes. *)

type state = { next_seq : int; floor : int; pending : entry list }
(** The folded queue state: the next delivery seq to assign, the ack
    floor (every seq below it has been delivered and acknowledged),
    and the pending entries in seq order. *)

type record =
  | Push of entry  (** A message entered the queue. *)
  | Ack of { upto : int }
      (** Every seq below [upto] was delivered and acknowledged — the
          compaction floor advances. *)
  | Drop of { seq : int }
      (** One pending record was rejected (stale-epoch policy) without
          being delivered. *)
  | Snapshot of state
      (** The folded state of everything before this record. *)

include Log.S with type record := record and type state := state
(** [state_of_records] ignores a replayed [Push] below the floor or
    duplicating a pending seq, so replaying a damaged image can never
    resurrect an acknowledged delivery. *)

val push : t -> epoch:int -> string -> entry
(** Append one message sealed under group [epoch]; returns the entry
    with its assigned delivery seq. Durable when it returns. *)

val ack : t -> upto:int -> unit
(** Advance the ack floor to [upto] (no-op if it would regress);
    pending entries below the floor are discarded and reclaimed by the
    next compaction. *)

val drop : t -> seq:int -> unit
(** Durably reject one pending record without delivering it (the
    stale-epoch policy's reject arm). No-op if [seq] is not pending. *)

val pending : t -> entry list
(** Pending entries in delivery-seq order (O(1); maintained
    incrementally). *)

val floor : t -> int
val next_seq : t -> int
val depth : t -> int
(** [List.length (pending t)]. *)
