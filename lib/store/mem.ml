type t = {
  volatile : (string, string) Hashtbl.t;
  durable : (string, string) Hashtbl.t;
}

let create () = { volatile = Hashtbl.create 4; durable = Hashtbl.create 4 }

(* Splice [data] into [cur] at [off], zero-filling any gap — sparse
   file semantics, so a torn write followed by a later append leaves a
   hole of zeros that replay treats as damage, exactly like a real
   disk. *)
let splice cur ~off data =
  let cur_len = String.length cur and dlen = String.length data in
  let len = max cur_len (off + dlen) in
  let b = Bytes.make len '\000' in
  Bytes.blit_string cur 0 b 0 cur_len;
  Bytes.blit_string data 0 b off dlen;
  Bytes.unsafe_to_string b

let pwrite t ~file ~off data =
  if off < 0 then invalid_arg "Mem.pwrite: negative offset";
  let cur = Option.value ~default:"" (Hashtbl.find_opt t.volatile file) in
  Hashtbl.replace t.volatile file (splice cur ~off data)

let read t ~file = Hashtbl.find_opt t.volatile file

let fsync t ~file =
  match Hashtbl.find_opt t.volatile file with
  | Some content -> Hashtbl.replace t.durable file content
  | None -> ()

let rename t ~src ~dst =
  (match Hashtbl.find_opt t.volatile src with
  | Some content ->
      Hashtbl.replace t.volatile dst content;
      Hashtbl.remove t.volatile src
  | None -> ());
  (* Durably, only fsynced bytes of [src] cross the crash boundary:
     renaming an unsynced staging file may surface as a missing
     [dst]. *)
  (match Hashtbl.find_opt t.durable src with
  | Some content -> Hashtbl.replace t.durable dst content
  | None -> Hashtbl.remove t.durable dst);
  Hashtbl.remove t.durable src

let remove t ~file =
  Hashtbl.remove t.volatile file;
  Hashtbl.remove t.durable file

let durable_of t file = Hashtbl.find_opt t.durable file

let crash_image t =
  Hashtbl.fold (fun name content acc -> (name, content) :: acc) t.durable []
  |> List.sort compare

let handle t = Backend.pack (module struct
  type nonrec t = t

  let pwrite = pwrite
  let read = read
  let fsync = fsync
  let rename = rename
  let remove = remove
end) t
