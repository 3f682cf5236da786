(** A 128-bit block cipher built as an 8-round Feistel network whose
    round function is SipHash-2-4.

    The block is split into two 64-bit halves; each round replaces the
    right half with [left XOR F(round, right)] where [F] is SipHash
    keyed by a per-round subkey derived from the cipher key. A Feistel
    network is a permutation regardless of the round function, so
    decryption is exact inversion. Eight rounds of a strong PRF give a
    strong pseudo-random permutation (Luby–Rackoff needs only four).

    Used by {!Ctr} to build the keystream generator. *)

type t
(** An expanded cipher key: the per-round subkeys, as plain immutable
    data (structural equality and [Marshal] work on it). *)

val block_size : int
(** Block size in bytes (16). *)

val of_key : string -> t
(** [of_key k] expands a 16-byte key.
    @raise Invalid_argument if [String.length k <> 16]. *)

val encrypt_block : t -> string -> string
(** [encrypt_block t b] encrypts one 16-byte block.
    @raise Invalid_argument if [String.length b <> 16]. *)

val decrypt_block : t -> string -> string
(** Inverse of {!encrypt_block}. *)

val encrypt_in_place : t -> bytes -> unit
(** [encrypt_in_place t b] replaces the first 16 bytes of [b] with
    their encryption, without allocating: the block step of {!Ctr}.
    @raise Invalid_argument if [Bytes.length b < 16]. *)
