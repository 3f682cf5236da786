(** One leader process: the {!Leader} automaton of the current
    incarnation plus everything that lives beside it on one host — a
    simulated disk (optionally under {!Store.Fault}), the journal, the
    epoch vault, the store-and-forward {!Delivery} layer and the
    intrusion {!Sentinel}.

    {!Driver.Improved} runs its single leader on one node; {!Failover}
    runs one node per manager. The harnesses keep their own topology —
    when to tick, crash and restart, replication, terms — and ask the
    node only for what one process does: start an incarnation, crash,
    and come back warm or cold from what survived.

    An {e incarnation} is one {!Leader.t} with its journal and delivery
    layer. It is {e serving} when it journals and queues (the driver's
    leader, a failover primary) and {e standby} when it does neither (a
    failover backup). The disk, the vault's file and the sentinel
    outlive incarnations. Counters that die with an automaton are
    banked exactly once, when its incarnation is replaced, so
    {!totals} sums every incarnation the node ever ran. *)

type t

val create :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * string) list ->
  ?policy:Leader.policy ->
  ?disk:Store.Mem.t ->
  ?faults:Store.Fault.config ->
  ?delivery:Delivery.policy ->
  ?budgets:Delivery.budgets ->
  ?sentinel:Sentinel.t ->
  standby:bool ->
  unit ->
  t
(** Start the first incarnation. With [disk], the journal (serving
    only) and the epoch vault write through to it, and so does the
    delivery layer; [faults] wraps the disk in a {!Store.Fault} layer
    seeded from a split of [rng] (ignored without [disk]). Without
    [disk] there is no journal and no vault, and the delivery layer
    is memory-only. The delivery layer exists only on a serving
    incarnation with a [delivery] policy.

    Disk operations happen in the order journal, vault, delivery —
    under {!Store.Fault} each one can draw from the fault PRNG. *)

val leader : t -> Leader.t
(** The current incarnation's automaton — after {!crash}, the dead
    one, until {!restart}. *)

val journal : t -> Journal.t option
(** The current incarnation's journal ([None] on a standby incarnation
    or without a disk). *)

val vault : t -> Store.Vault.t option
val fault : t -> Store.Fault.t option

val down : t -> bool
(** Between {!crash} and {!restart}. *)

val serve : t -> unit
(** Replace the current incarnation with a fresh serving one: a new
    journal, a new delivery layer, a leader that knows nothing. *)

val standby : t -> journal_prefix:int -> unit
(** Replace the current incarnation with a fresh standby one. A
    serving journal's file is first cut back to its first
    [journal_prefix] bytes (all of them if it is shorter) — a demoted
    primary keeps only what its backups acknowledged. *)

val crash : t -> unit
(** Mark the node down and capture the {e durable} image of the
    journal, the vault and every delivery queue: what a restarted
    process finds, without the unsynced bytes the crash lost.
    Idempotent while down. *)

type restarted = {
  status : Journal.status;  (** The journal's damage report. *)
  frames : Wire.Frame.t list;
      (** Warm: one [RecoveryChallenge] per journalled session. Cold:
          the [ColdRestart] beacons. *)
  crash_image : bool;
      (** The journal bytes came from the image {!crash} captured. *)
}

val restart :
  ?journal:string ->
  ?queues:(string * string) list ->
  ?beacons:bool ->
  warm:bool ->
  t ->
  restarted
(** Bring up a serving incarnation from what survived. The journal
    bytes are [journal] when given, else the crash image, else the
    live journal; the queue images likewise ([queues], crash image,
    live files). The vault is re-opened from its crash image, or its
    live contents. Disk operations happen in the order vault, queues,
    journal.

    Warm ([warm = true]) runs {!Journal.recover} and {!Leader.recover}:
    every journalled session is challenged. Cold replays the journal
    without writing it, starts an empty one and runs
    {!Leader.cold_recover}: no session is trusted, but the journal
    still pins the epoch floor; [beacons] is passed to
    {!Leader.cold_recover}.
    @raise Invalid_argument when there are no journal bytes at all. *)

type totals = {
  leader : Leader.counters;
      (** {!Leader.counters}, summed: recoveries, the ladder, and every
          re-send and give-up of {!Leader.tick}. *)
  eio_retries : int;
      (** {!Store.Backend.eio_retries} of the node's disk: every writer
          on it (journal, vault, delivery queues), every incarnation. *)
  delivery : Delivery.counters;
      (** Summed; [queue_bytes_hwm] is the max over incarnations. *)
}

val totals : t -> totals
(** Counters summed over every incarnation, the current one
    included. *)
