(** Storage backend signature — the narrow waist between the durable
    journal and whatever holds its bytes.

    A backend is a tiny named-file store with exactly the operations
    the journal's crash-consistency argument rests on:

    - {!S.pwrite} — positional write into a file (created on first
      write; gaps are zero-filled, like a sparse file);
    - {!S.read} — the file's current contents as the {e running
      process} sees them;
    - {!S.fsync} — make everything written to the file so far durable;
    - {!S.rename} — atomically replace [dst] with [src] (the
      snapshot-compaction commit point);
    - {!S.remove} — unlink a file (staging-area hygiene).

    The semantics that matter for crash consistency: a [pwrite] is
    {e not} durable until the file is [fsync]ed — a crash in between
    may persist any byte-prefix of the write, or none of it.  A
    [rename] commits atomically, but only the {e durable} content of
    [src] is guaranteed on the other side of a crash; renaming a file
    that was never fsynced can surface as a missing or empty [dst].
    Callers that want the classic atomic-replace idiom must therefore
    write the staged file, [fsync] it, and only then [rename] — the
    discipline {!Journal} follows and {!Crashpoint} checks.

    Implementations: {!Mem} (simulated device with an explicit
    durable/volatile split), {!File} (a real directory via [Unix]),
    and {!Fault} (a seeded fault-injecting wrapper over either). *)

exception Eio of string
(** A transient I/O error ([EIO]-style). The operation had no effect
    (or a partial effect that re-issuing the same call overwrites);
    callers are expected to retry a bounded number of times. *)

exception Crashed of string
(** Raised by fault-injecting backends at an injected crash point: the
    process is considered dead from this instant, and only the durable
    image survives. Never raised by real backends. *)

exception No_space of string
(** The device is full ([ENOSPC]/[EDQUOT]-style): the mutation did not
    land and retrying without freeing space cannot help. Unlike
    {!Eio} this is {e not} transient — callers must compact, shed, or
    degrade to memory-only operation, and may retry only after space
    has been reclaimed. Raised by {!File} on a genuinely full disk and
    by {!Fault} when a seeded byte budget is exhausted. *)

exception Stalled of string
(** The device has stopped making progress (a persistent write stall —
    a dying disk, a hung NFS mount). Every mutating call fails until
    the condition clears; reads may still serve from cache. Callers
    should treat this like {!No_space}: degrade rather than spin. Only
    raised by fault-injecting backends. *)

module type S = sig
  type t

  val pwrite : t -> file:string -> off:int -> string -> unit
  (** [pwrite t ~file ~off data] writes [data] at byte offset [off],
      creating [file] if needed and zero-filling any gap between the
      current end of file and [off]. Not durable until {!fsync}. *)

  val read : t -> file:string -> string option
  (** Current contents as seen by the running process ([None] if the
      file does not exist). After a crash, a fresh process may see
      less — only what was durable. *)

  val fsync : t -> file:string -> unit
  (** Make all writes to [file] so far durable. No-op on a missing
      file. *)

  val rename : t -> src:string -> dst:string -> unit
  (** Atomically replace [dst] with [src] ([src] ceases to exist).
      Durability of the content follows the fsync state of [src]. *)

  val remove : t -> file:string -> unit
  (** Unlink [file]; no-op if absent. *)
end

type t
(** A packed backend instance — what {!Journal} and the driver carry. *)

val pack : (module S with type t = 'a) -> 'a -> t

val pwrite : t -> file:string -> off:int -> string -> unit
val read : t -> file:string -> string option
val fsync : t -> file:string -> unit
val rename : t -> src:string -> dst:string -> unit
val remove : t -> file:string -> unit

(** {2 Write-through}

    The two durable write shapes every store module uses. Each backend
    call is retried on {!Eio} up to 8 times (the ninth propagates), and
    every retry is counted on the handle; {!Crashed}, {!No_space} and
    {!Stalled} propagate at once. *)

val write_synced : t -> file:string -> off:int -> string -> unit
(** [pwrite] then [fsync]: durable when it returns. A crash in between
    loses at most a tail of [data], which a checksummed reader
    absorbs. *)

val publish : t -> file:string -> string -> unit
(** Replace [file] with [data] atomically: remove [file ^ ".tmp"],
    write it, [fsync] it, rename it over [file]. A crash at any point
    leaves either the old durable image or the new one. *)

val eio_retries : t -> int
(** Retries absorbed on this handle, summed over every writer that
    shares it. *)
