(** 128-bit message authentication code built from two independently
    keyed SipHash instances.

    [tag t msg] concatenates [SipHash(k_left, msg)] and
    [SipHash(k_right, msg)] where the two subkeys are derived from the
    MAC key by domain-separated PRF calls, once, in {!of_key}. SipHash
    is itself a MAC for 64-bit tags; doubling the instance widens the
    forgery bound for the simulation. *)

type t
(** An expanded MAC key (the left and right subkeys), as plain
    immutable data. *)

val tag_size : int
(** Tag size in bytes (16). *)

val of_key : string -> t
(** [of_key key] expands a 16-byte MAC key.
    @raise Invalid_argument if [String.length key <> 16]. *)

val tag : t -> string -> string
(** [tag t msg] computes the MAC of [msg]. *)

val verify : t -> string -> tag:string -> bool
(** [verify t msg ~tag] recomputes and compares in constant time. *)
