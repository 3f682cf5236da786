type kind = Long_term | Session | Group

(* [cipher] and [mac] are the AEAD schedule: a pure function of
   [material], so [=], [compare] and [Marshal] behave as on the
   material alone. *)
type t = { kind : kind; material : string; cipher : Feistel.t; mac : Mac.t }

let size = 16

let pp_kind fmt = function
  | Long_term -> Format.pp_print_string fmt "long-term"
  | Session -> Format.pp_print_string fmt "session"
  | Group -> Format.pp_print_string fmt "group"

let kind t = t.kind

let of_raw kind material =
  if String.length material <> size then
    invalid_arg "Key.of_raw: key must be 16 bytes";
  {
    kind;
    material;
    cipher = Feistel.of_key (Kdf.derive ~key:material ~label:"aead-encrypt");
    mac = Mac.of_key (Kdf.derive ~key:material ~label:"aead-mac");
  }

let raw t = t.material
let cipher t = t.cipher
let mac t = t.mac
let long_term ~user ~password = of_raw Long_term (Kdf.of_password ~user ~password)

let fresh kind rng =
  of_raw kind (Bytes.unsafe_to_string (Prng.Splitmix.next_bytes rng size))

let equal a b =
  a.kind = b.kind && Byteskit.Bytes_ops.ct_equal a.material b.material

let fingerprint t =
  let k = { Siphash.k0 = 0x66696e6765727072L; k1 = 0x696e742121212121L } in
  Byteskit.Hex.encode (String.sub (Siphash.hash_to_bytes k t.material) 0 4)
