let key_size = 16
let pbkdf_iterations = 64

(* A fixed, public PRF key for the password KDF: secrecy comes from
   the password input, not this constant. *)
let password_key =
  { Siphash.k0 = 0x656e636c61766573L (* "enclaves" *);
    k1 = Siphash.hash { Siphash.k0 = 0L; k1 = 0L } "pa-kdf" }

(* Iteration i (from 1) hashes "i:0:" ^ state and "i:1:" ^ state. *)
let password_prefixes =
  Array.init pbkdf_iterations (fun i ->
      (Printf.sprintf "%d:0:" (i + 1), Printf.sprintf "%d:1:" (i + 1)))

let of_password ~user ~password =
  Array.fold_left
    (fun state (p0, p1) ->
      let b = Bytes.create key_size in
      Bytes.set_int64_le b 0 (Siphash.hash password_key (p0 ^ state));
      Bytes.set_int64_le b 8 (Siphash.hash password_key (p1 ^ state));
      Bytes.unsafe_to_string b)
    (user ^ "\x00" ^ password) password_prefixes

let derive ~key ~label =
  if String.length key <> key_size then
    invalid_arg "Kdf.derive: key must be 16 bytes";
  let master = Siphash.key_of_string key in
  let b = Bytes.create key_size in
  Bytes.set_int64_le b 0 (Siphash.hash master ("kdf:0:" ^ label));
  Bytes.set_int64_le b 8 (Siphash.hash master ("kdf:1:" ^ label));
  Bytes.unsafe_to_string b
