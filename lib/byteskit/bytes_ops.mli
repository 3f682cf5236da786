(** Miscellaneous byte-string operations used throughout the crypto and
    wire layers. *)

val ct_equal : string -> string -> bool
(** [ct_equal a b] compares [a] and [b] in time dependent only on
    [max (length a) (length b)]: the standard constant-time tag
    comparison. Strings of different lengths compare unequal, and the
    comparison is padded over the longer input so there is no early
    exit — neither a length mismatch nor the position of the first
    differing byte is observable through timing. *)

val get_u64_le : string -> int -> int64
(** [get_u64_le s off] reads 8 bytes little-endian at [off]. *)

val set_u64_le : bytes -> int -> int64 -> unit
(** [set_u64_le b off v] writes [v] little-endian at [off]. *)

val get_u32_be : string -> int -> int
(** [get_u32_be s off] reads a 32-bit big-endian unsigned value. *)

val set_u32_be : bytes -> int -> int -> unit
(** [set_u32_be b off v] writes the low 32 bits of [v] big-endian. *)

val get_u16_be : string -> int -> int
val set_u16_be : bytes -> int -> int -> unit

val pad_to : block:int -> string -> string
(** [pad_to ~block s] right-pads [s] with zero bytes to a multiple of
    [block] (at least one full block if [s] is empty). *)
