(** Concrete Dolev-Yao attacker knowledge.

    This is the byte-level counterpart of the paper's
    [Know(G, q) = Analz(I(G) ∪ trace(q))]: the attacker accumulates
    every payload seen on the wire plus any keys leaked to it (insider
    collusion, Oops events), and {!saturate} computes the analysis
    closure — repeatedly opening every recorded ciphertext with every
    known key under every plausible associated-data context, decoding
    the recovered plaintexts, and extracting any key material they
    carry (session keys and group keys ride inside [AuthKeyDist],
    [LegacyAuth2], [NewKey] and [New_group_key] payloads).

    What the attacker can {e not} do — recover a key from a ciphertext
    alone — mirrors the paper's assumption that the cryptographic
    primitives are unbreakable. *)

type t

val create : unit -> t

val add_key : t -> Sym_crypto.Key.t -> unit
(** Leak a key to the attacker (insider collusion / Oops event). *)

val observe : t -> string -> unit
(** Record raw wire bytes (a frame as seen on the network). *)

val observe_trace : t -> Netsim.Trace.t -> unit
(** Record every payload of a network trace. *)

val saturate : t -> unit
(** Run the Analz closure to a fixed point. Idempotent. *)

val knows_key : t -> Sym_crypto.Key.t -> bool
(** After {!saturate}: does the attacker hold this key? *)

val plaintexts : t -> string list
(** All payload plaintexts recovered so far. *)

val decrypt_app : t -> string -> (string * string) option
(** [decrypt_app t frame_bytes] tries to read an [AppData] frame with
    every known group key; returns [(author, body)] on success. The
    confidentiality-loss check of attack A3. *)

val stats : t -> int * int * int
(** [(observed, keys, plaintexts)] — sizes, for reporting. *)
