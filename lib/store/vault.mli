(** Durable epoch vault — a monotonic counter that survives losing the
    journal's tail.

    The leader journal records group-key epoch bumps as appended
    records; a torn final write or a dropped fsync can durably lose the
    {e last} bump, making a cold-restarted leader announce an epoch one
    behind what members hold — which members rightly reject as stale,
    forcing them back onto the slow watchdog path (experiment E19b).

    The vault closes that residue: every granted epoch is also written,
    at grant time, to a fixed-size two-slot image through the same
    {!Backend}. Writes alternate slots and never touch the slot holding
    the current maximum, so any single interrupted write leaves the
    previous value intact; {!get} returns the highest slot whose
    checksum verifies. The checksum (FNV-1a 64) defends against torn
    writes, not against an adversary — the disk is failure-prone
    hardware, not a malicious party, in the paper's trust model. *)

type t

val default_file : string
(** ["epoch_vault"]. *)

val create : ?file:string -> ?disk:Backend.t -> unit -> t
(** An empty vault (epoch 0), write-through to [disk] when given. If
    the backend already holds bytes for [file] they are decoded first,
    so [create] doubles as open-or-create. *)

val load : ?file:string -> disk:Backend.t -> unit -> t
(** Decode whatever the backend holds for [file]; missing or damaged
    slots degrade to epoch 0, never an exception. *)

val of_bytes : ?file:string -> ?disk:Backend.t -> string -> t
(** Decode a raw image (e.g. the durable bytes captured at a crash) —
    total on arbitrary input — and re-publish it through [disk] when
    given. *)

val put : t -> int -> unit
(** [put t epoch] durably records [epoch] if it exceeds {!get} (the
    vault is monotonic; lower values are ignored). One [pwrite] of the
    victim slot plus one [fsync]; transient [Backend.Eio] is retried a
    bounded number of times. *)

val get : t -> int
(** The highest epoch whose slot checksum verifies; 0 for an empty or
    fully damaged vault. *)

val contents : t -> string
(** The raw image bytes. *)

