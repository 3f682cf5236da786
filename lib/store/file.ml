type t = { dir : string }

let wrap_unix f =
  try f () with
  | Unix.Unix_error
      ((Unix.ENOSPC | Unix.EUNKNOWNERR 122 (* EDQUOT on Linux *)) as e, fn, arg)
    ->
      (* A full disk (or quota) is not a transient fault: retrying
         without freeing space cannot succeed, so it gets the typed
         error the degraded-mode ladder keys on. EDQUOT is not in
         [Unix.error]'s enumerated set, so it arrives as the raw
         errno. *)
      raise
        (Backend.No_space
           (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))
  | Unix.Unix_error (e, fn, arg) ->
      raise
        (Backend.Eio (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

let create ~dir =
  wrap_unix (fun () ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      { dir })

let path t file =
  if String.contains file '/' then
    invalid_arg "File: file names must not contain '/'";
  Filename.concat t.dir file

let pwrite t ~file ~off data =
  if off < 0 then invalid_arg "File.pwrite: negative offset";
  wrap_unix (fun () ->
      let fd = Unix.openfile (path t file) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let len = String.length data in
          let written = ref 0 in
          while !written < len do
            written :=
              !written + Unix.write_substring fd data !written (len - !written)
          done))

let read t ~file =
  let p = path t file in
  if not (Sys.file_exists p) then None
  else wrap_unix (fun () -> Some (In_channel.with_open_bin p In_channel.input_all))

let fsync t ~file =
  let p = path t file in
  if Sys.file_exists p then
    wrap_unix (fun () ->
        let fd = Unix.openfile p [ Unix.O_RDONLY ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd))

(* Persist the name change itself: fsync the containing directory.
   Some filesystems refuse fsync on a directory fd — that is their
   claim that the metadata is already ordered, so EINVAL/EBADF are
   ignored. *)
let fsync_dir t =
  match Unix.openfile t.dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let rename t ~src ~dst =
  wrap_unix (fun () ->
      Unix.rename (path t src) (path t dst);
      fsync_dir t)

let remove t ~file =
  let p = path t file in
  if Sys.file_exists p then (
    wrap_unix (fun () -> Unix.unlink p);
    fsync_dir t)

let handle t = Backend.pack (module struct
  type nonrec t = t

  let pwrite = pwrite
  let read = read
  let fsync = fsync
  let rename = rename
  let remove = remove
end) t
