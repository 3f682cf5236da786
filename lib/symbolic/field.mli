(** The message-field algebra of §4.

    Fields are the abstract syntax of message contents: agent
    identities, nonces, keys and data atoms are primitive; fields close
    under concatenation [FCat] and symmetric encryption [FCrypt]. This
    is exactly the set [F] of the paper (with [FData] standing for the
    abstract group-management payload [X]).

    Nonces and session keys come from finite indexed pools so that the
    model checker explores a finite state space; the paper's
    [FreshNonces]/[FreshKeys] are modelled by least-unused allocation,
    a sound symmetry reduction because unused atoms are
    interchangeable. *)

type agent = A  (** The honest user under analysis. *)
           | L  (** The honest leader. *)
           | Intruder  (** Everyone else, folded into one Dolev-Yao agent. *)

type key =
  | Pa  (** A's long-term key — the secrecy target of §5.1. *)
  | Ka of int  (** Session keys, by pool index — the targets of §5.2. *)
  | Kg of int
      (** Group keys by epoch — used by the legacy-protocol model
          (§2.2/§2.3), where insiders hold them. *)

type t =
  | FAgent of agent
  | FNonce of int
  | FKey of key
  | FData of int  (** Abstract group-management payload [X]. *)
  | FCat of t list  (** Concatenation; invariant: length >= 2. *)
  | FCrypt of key * t  (** [{body}_k]. *)

val compare : t -> t -> int
(** The order of [Stdlib.compare], computed without it. *)

val equal : t -> t -> bool
val compare_key : key -> key -> int

val encode_int : Buffer.t -> int -> unit
(** Append a prefix-free encoding of an int (LEB128 over its 63
    bits). *)

val encode : Buffer.t -> t -> unit
(** Append a prefix-free encoding of a field: two fields have the same
    encoding iff they are equal, and no encoding is a proper prefix of
    another, so encodings can be concatenated into canonical state
    keys. *)

val pp_agent : Format.formatter -> agent -> unit
val pp : Format.formatter -> t -> unit

val cat : t list -> t
(** Smart constructor. @raise Invalid_argument on fewer than 2 parts. *)

module Set : Stdlib.Set.S with type elt = t
