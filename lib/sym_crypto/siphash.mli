(** SipHash-2-4 keyed pseudo-random function (Aumasson & Bernstein).

    SipHash maps a 128-bit key and an arbitrary byte string to a 64-bit
    output. It is the single cryptographic primitive of this repository:
    the block cipher, MAC and KDF are all built from it. The
    implementation follows the reference specification and is validated
    against the published test vectors.

    The paper treats cryptography as an ideal black box (Dolev-Yao
    model); this concrete instantiation exists so that the runtime
    protocol stack manipulates real bytes — real IVs, real tags, real
    replayable ciphertexts — rather than symbolic terms. It is a
    simulation substrate, not production cryptography. *)

type key = { k0 : int64; k1 : int64 }
(** A 128-bit key as two little-endian 64-bit halves. *)

val key_of_string : string -> key
(** [key_of_string s] reads a 16-byte key.
    @raise Invalid_argument if [String.length s <> 16]. *)

val key_to_string : key -> string
(** Inverse of {!key_of_string}. *)

val hash : key -> string -> int64
(** [hash key msg] is the SipHash-2-4 output. *)

val hash_with : string -> int -> string -> int64
(** [hash_with keys i msg] is {!hash} of [msg] under the [i]-th key of
    [keys], a table of 16-byte keys packed end to end (the layout of
    {!key_to_string}). *)

val hash_to_bytes : key -> string -> string
(** [hash_to_bytes key msg] is {!hash} rendered as 8 little-endian
    bytes (the format used by the reference test vectors). *)
