exception Eio of string
exception Crashed of string
exception No_space of string
exception Stalled of string

module type S = sig
  type t

  val pwrite : t -> file:string -> off:int -> string -> unit
  val read : t -> file:string -> string option
  val fsync : t -> file:string -> unit
  val rename : t -> src:string -> dst:string -> unit
  val remove : t -> file:string -> unit
end

type t = {
  pwrite : file:string -> off:int -> string -> unit;
  read : file:string -> string option;
  fsync : file:string -> unit;
  rename : src:string -> dst:string -> unit;
  remove : file:string -> unit;
  mutable eio_retries : int;
}

let pack (type a) (module B : S with type t = a) (h : a) =
  {
    pwrite = (fun ~file ~off data -> B.pwrite h ~file ~off data);
    read = (fun ~file -> B.read h ~file);
    fsync = (fun ~file -> B.fsync h ~file);
    rename = (fun ~src ~dst -> B.rename h ~src ~dst);
    remove = (fun ~file -> B.remove h ~file);
    eio_retries = 0;
  }

let pwrite t ~file ~off data = t.pwrite ~file ~off data
let read t ~file = t.read ~file
let fsync t ~file = t.fsync ~file
let rename t ~src ~dst = t.rename ~src ~dst
let remove t ~file = t.remove ~file

(* Transient EIO is retried a bounded number of times, and each retry
   is counted on the handle, so one count covers every writer that
   shares it. Safe because each retried call is idempotent: a pwrite
   rewrites the same offset, fsync/rename/remove can be re-issued.
   [Crashed], [No_space] and [Stalled] propagate. *)
let max_eio_retries = 8

let retry t f =
  let rec go attempt =
    try f ()
    with Eio _ when attempt < max_eio_retries ->
      t.eio_retries <- t.eio_retries + 1;
      go (attempt + 1)
  in
  go 0

let eio_retries t = t.eio_retries

let write_synced t ~file ~off data =
  retry t (fun () -> pwrite t ~file ~off data);
  retry t (fun () -> fsync t ~file)

(* The staging file is removed first so a stale longer tmp can never
   leak a garbage tail past the rename. *)
let publish t ~file data =
  let tmp = file ^ ".tmp" in
  retry t (fun () -> remove t ~file:tmp);
  retry t (fun () -> pwrite t ~file:tmp ~off:0 data);
  retry t (fun () -> fsync t ~file:tmp);
  retry t (fun () -> rename t ~src:tmp ~dst:file)
