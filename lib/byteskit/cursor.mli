(** Sequential binary reader and writer.

    [Writer] appends typed values to a growable buffer; [Reader]
    consumes them from a string. All multi-byte integers are
    big-endian on the wire. Decoding failures are reported as
    [Error]-carrying results so that the wire layer can treat malformed
    frames (for example, attacker-injected garbage) as ordinary data
    rather than exceptions. *)

module Writer : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit

  val bytes : t -> string -> unit
  (** [bytes w s] appends a 32-bit length prefix followed by [s]. *)

  val raw : t -> string -> unit
  (** [raw w s] appends [s] with no length prefix. *)

  val contents : t -> string
end

module Reader : sig
  type t

  type error = [ `Truncated of string | `Malformed of string ]

  val pp_error : Format.formatter -> error -> unit
  val of_string : string -> t
  val remaining : t -> int
  val u8 : t -> (int, error) result
  val u16 : t -> (int, error) result
  val u32 : t -> (int, error) result
  val u64 : t -> (int64, error) result

  val bytes : t -> (string, error) result
  (** Reads a 32-bit length prefix then that many bytes. *)

  val raw : t -> int -> (string, error) result
  (** [raw r n] reads exactly [n] bytes. *)

  val rest : t -> string
  (** [rest r] consumes and returns all remaining bytes. *)

  val expect_end : t -> (unit, error) result
  (** Succeeds iff the reader is exhausted; trailing bytes in a frame
      indicate a malformed or tampered message. *)
end

val ( let* ) :
  ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** Result bind, re-exported for decoder pipelines. *)
