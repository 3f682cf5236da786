(** Append-only, checksummed, truncation-tolerant log — the one engine
    behind the leader journal and the delivery queues.

    An instance is made by {!Make} over a record module: its codec, its
    fold into a state, the record that snapshots a state, and four
    constants (magic, MAC key, default compaction threshold, default
    file name). Everything else is shared: framing, replay, compaction,
    the degraded-mode switch, the mutation hook, and the write-through
    to a {!Backend}.

    {2 Format}

    {v
    header  := magic:4 version:u8(=1)
    record  := len:u32 payload:len sum:8
    payload := seq:u32 tag:u8 fields...
    v}

    [sum] is SipHash-2-4 of the payload under the instance's MAC key (a
    fixed public key: integrity, not secrecy). [seq] counts records
    from 0 and restarts at every compaction. Records are framed
    independently, so any {e tail} damage — a torn final write,
    truncation at an arbitrary byte, a flipped bit — costs at most the
    records from the damage onward: [replay] walks records in order and
    stops at the first length that overruns the buffer, checksum
    mismatch, malformed payload, or out-of-sequence record, returning
    the valid prefix. It never raises on any input.

    {2 Compaction}

    [compact] rewrites the log as the single record [R.snapshot] of
    the folded state, and [append] compacts by itself once more than
    [compact_every] records follow the last snapshot, so the log's size
    is bounded by its live state, not by its history.

    {2 Write-through}

    The in-memory image is authoritative for reads. With a [disk], every
    mutation reaches the backend before it returns: an append is
    {!Backend.write_synced} of the new record at its offset, and
    anything that replaces the image (creation, compaction) is
    {!Backend.publish}. *)

type status =
  | Clean  (** Every byte of the buffer parsed and verified. *)
  | Damaged of { valid_records : int; valid_bytes : int }
      (** Replay stopped early; only the prefix described here was
          recovered. *)

type event =
  | Appended of string
      (** One framed record (len + payload + checksum) was appended;
          the argument is exactly the bytes that extended the image. *)
  | Published of string
      (** The whole image was replaced; the argument is the complete
          new image. *)

module type RECORD = sig
  type record
  type state

  val empty_state : state

  val apply : state -> record -> state
  (** Fold one record into the state. *)

  val snapshot : state -> record
  (** The record that stands for a whole state; [apply _ (snapshot s)]
      must be [s]. *)

  val encode : Byteskit.Cursor.Writer.t -> record -> unit
  (** The record's tag and fields (the engine writes [seq] before). *)

  val decode :
    Byteskit.Cursor.Reader.t ->
    (record, Byteskit.Cursor.Reader.error) result

  val magic : string  (** 4 bytes. *)

  val mac_key : string  (** 16 bytes. *)

  val compact_every : int  (** Default compaction threshold. *)

  val file : string  (** Default backing file name. *)
end

module type S = sig
  type record
  type state

  type nonrec status = status =
    | Clean
    | Damaged of { valid_records : int; valid_bytes : int }

  type nonrec event = event = Appended of string | Published of string
  type t

  val empty_state : state

  val record_equal : record -> record -> bool
  (** Equal encodings. *)

  val create :
    ?compact_every:int ->
    ?disk:Backend.t ->
    ?file:string ->
    ?durable:bool ->
    unit ->
    t
  (** An empty log, published to [file] on [disk] when both are given
      and [durable] (default true) holds. [durable] is the initial state
      of the {!set_durable} switch: [false] lets a log be created while
      the backend is refusing writes, to be re-armed later.
      @raise Invalid_argument if [compact_every < 1]. *)

  val append : t -> record -> unit
  (** Append one record; may compact. Durable when it returns. *)

  val compact : t -> unit
  (** Rewrite the log as one snapshot of the current state. *)

  val state : t -> state
  (** The fold of every record so far (maintained incrementally). *)

  val records : t -> int
  (** Records in the image, snapshot included. *)

  val size : t -> int
  (** Image size in bytes. *)

  val contents : t -> string
  (** The image — with a [disk], byte-identical to the file after every
      successful fault-free mutation. *)

  val file : t -> string

  val set_observer : t -> (event -> unit) option -> unit
  (** Mutation hook, fired {e after} the write-through succeeds, so an
      observed event describes bytes already durable locally. At most
      one observer; [None] unsubscribes. *)

  val set_durable : t -> bool -> unit
  (** Degraded-mode switch. With durability off, mutations keep
      evolving the image (and still fire the observer) but nothing
      touches the backend — the file goes stale. Re-arm with
      [set_durable t true] followed by {!compact}, which republishes
      the whole image atomically. *)

  val durable : t -> bool

  val replay : string -> record list * status
  (** The longest valid prefix of arbitrary bytes. Total: never
      raises. *)

  val state_of_records : record list -> state
  (** Fold records into the state they describe. *)

  val recover :
    ?compact_every:int ->
    ?disk:Backend.t ->
    ?file:string ->
    string ->
    t * state * status
  (** {!replay} the bytes, fold the valid prefix, and return a fresh log
      already compacted to a snapshot of that state, with the state and
      the damage report. *)

  val load :
    ?compact_every:int ->
    ?file:string ->
    disk:Backend.t ->
    unit ->
    t * state * status
  (** {!recover} from whatever the backend holds for [file]; a missing
      file recovers the empty state. *)
end

module Make (R : RECORD) :
  S with type record = R.record and type state = R.state
