(** Real-file backend: a directory of files driven through [Unix],
    with the explicit fsync discipline the {!Mem} model simulates.

    Each operation opens, acts, and closes — no descriptor cache, so
    the backend has no volatile state of its own beyond the kernel's
    page cache (which is exactly what [fsync] is for). [rename] is
    [Unix.rename] followed by a directory fsync, making the
    write → fsync → rename compaction idiom durable on POSIX
    filesystems.

    [Unix_error]s surface as {!Backend.Eio} so callers share one
    retry path with the fault-injecting wrapper. *)

type t

val create : dir:string -> t
(** Use [dir] as the store's root, creating it (one level) if
    missing. File names must be plain names — no path separators.
    @raise Backend.Eio if the directory cannot be created. *)

val handle : t -> Backend.t

include Backend.S with type t := t
