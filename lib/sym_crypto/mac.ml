let tag_size = 16

(* The left and right subkeys packed as two 16-byte SipHash keys. *)
type t = string

let labels =
  [| "mac-subkey:left:0"; "mac-subkey:left:1"; "mac-subkey:right:0"; "mac-subkey:right:1" |]

let of_key key =
  if String.length key <> 16 then invalid_arg "Mac: key must be 16 bytes";
  let master = Siphash.key_of_string key in
  let b = Bytes.create 32 in
  Array.iteri (fun j label -> Bytes.set_int64_le b (8 * j) (Siphash.hash master label)) labels;
  Bytes.unsafe_to_string b

let tag t msg =
  let b = Bytes.create tag_size in
  Bytes.set_int64_le b 0 (Siphash.hash_with t 0 msg);
  Bytes.set_int64_le b 8 (Siphash.hash_with t 1 msg);
  Bytes.unsafe_to_string b

let verify t msg ~tag:expected =
  String.length expected = tag_size && Byteskit.Bytes_ops.ct_equal (tag t msg) expected
