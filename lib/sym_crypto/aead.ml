open Byteskit

type sealed = { iv : string; ciphertext : string; tag : string }

(* The MAC covers [iv || ad || ciphertext], each with a u32 big-endian
   length prefix (the {!Cursor.Writer.bytes} framing), built in one
   buffer of exact size. *)
let mac_input ~iv ~ad ~ciphertext =
  let b = Bytes.create (12 + String.length iv + String.length ad + String.length ciphertext) in
  let put pos s =
    let n = String.length s in
    Bytes_ops.set_u32_be b pos n;
    Bytes.blit_string s 0 b (pos + 4) n;
    pos + 4 + n
  in
  ignore (put (put (put 0 iv) ad) ciphertext);
  Bytes.unsafe_to_string b

let seal ~key ~iv ~ad plaintext =
  let ciphertext = Ctr.transform (Key.cipher key) ~iv plaintext in
  let tag = Mac.tag (Key.mac key) (mac_input ~iv ~ad ~ciphertext) in
  { iv; ciphertext; tag }

let open_ ~key ~ad { iv; ciphertext; tag } =
  if
    String.length iv = Ctr.iv_size
    && Mac.verify (Key.mac key) (mac_input ~iv ~ad ~ciphertext) ~tag
  then Ok (Ctr.transform (Key.cipher key) ~iv ciphertext)
  else Error `Auth_failure

let random_iv rng =
  Bytes.unsafe_to_string (Prng.Splitmix.next_bytes rng Ctr.iv_size)

let encode { iv; ciphertext; tag } =
  let w = Cursor.Writer.create () in
  Cursor.Writer.bytes w iv;
  Cursor.Writer.bytes w ciphertext;
  Cursor.Writer.bytes w tag;
  Cursor.Writer.contents w

let decode s =
  let open Cursor in
  let r = Reader.of_string s in
  let result =
    let* iv = Reader.bytes r in
    let* ciphertext = Reader.bytes r in
    let* tag = Reader.bytes r in
    let* () = Reader.expect_end r in
    Ok { iv; ciphertext; tag }
  in
  Result.map_error (fun e -> Format.asprintf "%a" Reader.pp_error e) result
