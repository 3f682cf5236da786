(** In-memory backend with an explicit page-cache model.

    Every file has two views: the {e volatile} content (what the
    running process reads back — every [pwrite] lands here) and the
    {e durable} content (what survives a crash — updated only by
    [fsync] and by [rename] of already-durable bytes). The split is
    what makes dropped-fsync and torn-write injection meaningful: a
    fault that skips the sync leaves the tail of the file volatile,
    and {!crash_image} shows exactly what a restarted process would
    find.

    [rename] is atomic in both views. Its durable side publishes the
    {e durable} content of [src]; bytes of [src] that were never
    fsynced do not survive the crash boundary, so a rename of an
    unsynced staging file can leave [dst] missing — the classic
    write/fsync/rename ordering bug this model is built to catch. *)

type t

val create : unit -> t
val handle : t -> Backend.t

val durable_of : t -> string -> string option
(** What a crash at this instant would preserve for one file. *)

val crash_image : t -> (string * string) list
(** The full durable view: every file a restarted process would find,
    sorted by name. *)

include Backend.S with type t := t
