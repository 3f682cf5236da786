open Byteskit

let ( let* ) = Cursor.( let* )

type status = Clean | Damaged of { valid_records : int; valid_bytes : int }
type event = Appended of string | Published of string

module type RECORD = sig
  type record
  type state

  val empty_state : state
  val apply : state -> record -> state
  val snapshot : state -> record
  val encode : Cursor.Writer.t -> record -> unit
  val decode : Cursor.Reader.t -> (record, Cursor.Reader.error) result
  val magic : string
  val mac_key : string
  val compact_every : int
  val file : string
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

  val create :
    ?compact_every:int ->
    ?disk:Backend.t ->
    ?file:string ->
    ?durable:bool ->
    unit ->
    t

  val append : t -> record -> unit
  val compact : t -> unit
  val state : t -> state
  val records : t -> int
  val size : t -> int
  val contents : t -> string
  val file : t -> string
  val set_observer : t -> (event -> unit) option -> unit
  val set_durable : t -> bool -> unit
  val durable : t -> bool
  val replay : string -> record list * status
  val state_of_records : record list -> state

  val recover :
    ?compact_every:int ->
    ?disk:Backend.t ->
    ?file:string ->
    string ->
    t * state * status

  val load :
    ?compact_every:int ->
    ?file:string ->
    disk:Backend.t ->
    unit ->
    t * state * status
end

let version = 1

module Make (R : RECORD) = struct
  type record = R.record
  type state = R.state

  type nonrec status = status =
    | Clean
    | Damaged of { valid_records : int; valid_bytes : int }

  type nonrec event = event = Appended of string | Published of string

  let empty_state = R.empty_state
  let header = R.magic ^ String.make 1 (Char.chr version)
  let mac = Sym_crypto.Siphash.key_of_string R.mac_key

  let encode_payload ~seq record =
    let w = Cursor.Writer.create () in
    Cursor.Writer.u32 w seq;
    R.encode w record;
    Cursor.Writer.contents w

  let decode_payload payload =
    let r = Cursor.Reader.of_string payload in
    Result.to_option
      (let* seq = Cursor.Reader.u32 r in
       let* record = R.decode r in
       let* () = Cursor.Reader.expect_end r in
       Ok (seq, record))

  let record_equal a b = encode_payload ~seq:0 a = encode_payload ~seq:0 b
  let state_of_records records = List.fold_left R.apply R.empty_state records

  type t = {
    buf : Buffer.t;
    compact_every : int;
    disk : Backend.t option;
    file : string;
    mutable st : state;
    mutable nrecords : int;
    mutable next_seq : int;
    mutable since_snapshot : int;
    mutable observer : (event -> unit) option;
    mutable durable : bool;
  }

  let state t = t.st
  let records t = t.nrecords
  let size t = Buffer.length t.buf
  let contents t = Buffer.contents t.buf
  let file t = t.file
  let set_observer t obs = t.observer <- obs
  let set_durable t b = t.durable <- b
  let durable t = t.durable
  let notify t ev = match t.observer with None -> () | Some f -> f ev

  let publish t =
    match t.disk with
    | Some d when t.durable -> Backend.publish d ~file:t.file (contents t)
    | _ -> ()

  let create ?(compact_every = R.compact_every) ?disk ?(file = R.file)
      ?(durable = true) () =
    if compact_every < 1 then
      invalid_arg "Log.create: compact_every must be positive";
    let buf = Buffer.create 256 in
    Buffer.add_string buf header;
    let t =
      {
        buf;
        compact_every;
        disk;
        file;
        st = R.empty_state;
        nrecords = 0;
        next_seq = 0;
        since_snapshot = 0;
        observer = None;
        durable;
      }
    in
    publish t;
    t

  let append_raw t record =
    let payload = encode_payload ~seq:t.next_seq record in
    Buffer.add_int32_be t.buf (Int32.of_int (String.length payload));
    Buffer.add_string t.buf payload;
    Buffer.add_string t.buf (Sym_crypto.Siphash.hash_to_bytes mac payload);
    t.next_seq <- t.next_seq + 1;
    t.nrecords <- t.nrecords + 1;
    t.st <- R.apply t.st record

  let compact t =
    let st = t.st in
    Buffer.clear t.buf;
    Buffer.add_string t.buf header;
    t.nrecords <- 0;
    t.next_seq <- 0;
    t.since_snapshot <- 0;
    append_raw t (R.snapshot st);
    publish t;
    notify t (Published (contents t))

  let append t record =
    let off = Buffer.length t.buf in
    append_raw t record;
    t.since_snapshot <- t.since_snapshot + 1;
    if t.since_snapshot > t.compact_every then compact t
    else begin
      let chunk = Buffer.sub t.buf off (Buffer.length t.buf - off) in
      (match t.disk with
      | Some d when t.durable -> Backend.write_synced d ~file:t.file ~off chunk
      | _ -> ());
      notify t (Appended chunk)
    end

  (* Total on arbitrary bytes: every early exit is a damaged prefix. *)
  let replay bytes =
    let len = String.length bytes in
    let rec go pos seq acc =
      let stop () =
        let records = List.rev acc in
        if pos = len then (records, Clean)
        else (records, Damaged { valid_records = seq; valid_bytes = pos })
      in
      if len - pos < 4 then stop ()
      else
        let rlen =
          Int32.to_int (String.get_int32_be bytes pos) land 0xffff_ffff
        in
        if rlen > len - pos - 12 then stop ()
        else
          let payload = String.sub bytes (pos + 4) rlen in
          let sum = String.sub bytes (pos + 4 + rlen) 8 in
          if sum <> Sym_crypto.Siphash.hash_to_bytes mac payload then stop ()
          else
            match decode_payload payload with
            | Some (s, record) when s = seq ->
                go (pos + 4 + rlen + 8) (seq + 1) (record :: acc)
            | Some _ | None -> stop ()
    in
    let hlen = String.length header in
    if len < hlen || String.sub bytes 0 hlen <> header then
      ([], Damaged { valid_records = 0; valid_bytes = 0 })
    else go hlen 0 []

  let recover ?compact_every ?disk ?file bytes =
    let records, status = replay bytes in
    let st = state_of_records records in
    let t = create ?compact_every ?disk ?file () in
    t.st <- st;
    compact t;
    (t, st, status)

  let load ?compact_every ?(file = R.file) ~disk () =
    let bytes = Option.value ~default:"" (Backend.read disk ~file) in
    recover ?compact_every ~disk ~file bytes
end
