(** Seeded fault injection over any {!Backend.t}.

    Four probabilistic faults plus one deterministic crash trigger:

    - {b torn write}: only a seeded byte-prefix of a [pwrite] reaches
      the backend, yet the call reports success — the silent
      corruption a power cut mid-write produces.
    - {b short write}: a prefix lands and the call raises
      {!Backend.Eio}; because journal appends rewrite the same offset,
      a retry heals this one.
    - {b transient EIO}: the call raises {!Backend.Eio} with no
      effect.
    - {b dropped fsync}: [fsync] silently does nothing, leaving the
      file's tail volatile.
    - {b crash-after-k-writes}: the k-th mutation ([pwrite] or
      [rename]) tears mid-operation and raises {!Backend.Crashed};
      every call after that raises too. Combined with
      {!Mem.crash_image} this yields a deterministic disk image for
      recovery testing.

    Plus three resource-exhaustion arms:

    - {b ENOSPC budget}: the wrapper tracks every file's size as it
      forwards mutations; a [pwrite] that would grow total usage past
      the byte budget raises {!Backend.No_space} with no effect.
      Compaction genuinely frees budget (snapshot rewrite + rename +
      remove shrink the tracked usage), and {!set_space_budget} lets a
      harness vary the budget over virtual time — disk fills, space
      returns.
    - {b fsync-latency spike}: an [fsync] records a seeded latency
      spike in [counters] (magnitude in [1, fsync_spike_ms]) instead
      of sleeping — virtual-time harnesses poll the counters for
      pressure.
    - {b persistent write stall}: past the k-th mutation every
      mutating call ([pwrite]/[fsync]/[rename]) raises
      {!Backend.Stalled} until {!heal_stall} — a dying disk, not a
      transient error. Reads keep serving.

    All randomness comes from the caller's [Prng.Splitmix.t], so a
    fault schedule is a pure function of the seed. *)

type config = {
  eio : float;  (** probability a call raises [Eio] with no effect *)
  short_write : float;  (** probability a [pwrite] lands a prefix and raises *)
  torn_write : float;  (** probability a [pwrite] lands a prefix silently *)
  drop_fsync : float;  (** probability an [fsync] is silently skipped *)
  crash_after_writes : int option;
      (** crash on the k-th mutating call (1-based), if set *)
  space_budget : int option;
      (** initial byte budget for the ENOSPC arm ([None] = unlimited);
          adjustable at runtime with {!set_space_budget} *)
  fsync_spike : float;  (** probability an [fsync] records a latency spike *)
  fsync_spike_ms : int;  (** max spike magnitude, milliseconds *)
  stall_after_writes : int option;
      (** persistent stall from the k-th mutating call, if set *)
}

val none : config

type counters = {
  mutable torn_writes : int;
  mutable short_writes : int;
  mutable dropped_fsyncs : int;
  mutable eio_injected : int;
  mutable crashes : int;
  mutable enospc_hits : int;  (** writes refused by the byte budget *)
  mutable fsync_spikes : int;  (** fsyncs that recorded a latency spike *)
  mutable fsync_stall_ms_max : int;  (** largest spike recorded, ms *)
  mutable stalled_ops : int;  (** mutations refused while stalled *)
}

val empty_counters : unit -> counters
(** A fresh all-zero record — for harnesses that aggregate counters
    across restarts or report a no-fault baseline. *)

type t

val create : ?config:config -> rng:Prng.Splitmix.t -> Backend.t -> t
val handle : t -> Backend.t
val counters : t -> counters
val crashed : t -> bool

val heal_stall : t -> unit
(** Clear a tripped stall: the disk comes back, mutations succeed
    again. The trigger does not re-arm. *)

val trigger_stall : t -> unit
(** Trip the stall arm now, as if [stall_after_writes] had just
    elapsed — lets a harness stall the disk at a chosen virtual time
    instead of a write count. {!heal_stall} clears it. *)

val set_space_budget : t -> int option -> unit
(** Replace the ENOSPC byte budget ([None] = unlimited). Lowering it
    below current usage refuses all growth until compaction frees
    space. *)

val bytes_used : t -> int
(** Total bytes the wrapper has tracked across live files — what the
    ENOSPC arm charges against the budget. *)
