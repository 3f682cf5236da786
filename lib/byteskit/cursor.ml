let ( let* ) = Result.bind

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 64
  let u8 w v = Buffer.add_char w (Char.chr (v land 0xFF))

  let u16 w v =
    u8 w (v lsr 8);
    u8 w v

  let u32 w v =
    u16 w (v lsr 16);
    u16 w v

  let u64 w v =
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 v;
    Buffer.add_bytes w b

  let raw w s = Buffer.add_string w s

  let bytes w s =
    u32 w (String.length s);
    raw w s

  let contents = Buffer.contents
end

module Reader = struct
  type t = { src : string; mutable pos : int }
  type error = [ `Truncated of string | `Malformed of string ]

  let pp_error fmt = function
    | `Truncated what -> Format.fprintf fmt "truncated while reading %s" what
    | `Malformed what -> Format.fprintf fmt "malformed %s" what

  let of_string src = { src; pos = 0 }
  let remaining r = String.length r.src - r.pos

  let take r n what =
    if remaining r < n then Error (`Truncated what)
    else begin
      let s = String.sub r.src r.pos n in
      r.pos <- r.pos + n;
      Ok s
    end

  (* An integer of [n] bytes, read in place by [get] after the length
     check [take] makes, so it costs no substring. *)
  let read r n what get =
    if remaining r < n then Error (`Truncated what)
    else begin
      let v = get r.src r.pos in
      r.pos <- r.pos + n;
      Ok v
    end

  let u8 r = read r 1 "u8" String.get_uint8
  let u16 r = read r 2 "u16" String.get_uint16_be

  (* A short u32 is reported as a truncated "u16": the decoders' error
     texts are part of their output, and tests pin them. *)
  let u32 r =
    read r 4 "u16" (fun s pos ->
        Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF)

  let u64 r = read r 8 "u64" String.get_int64_be

  let bytes r =
    let* n = u32 r in
    if n > remaining r then Error (`Truncated "length-prefixed bytes")
    else take r n "bytes"

  let raw r n = take r n "raw bytes"

  let rest r =
    let s = String.sub r.src r.pos (remaining r) in
    r.pos <- String.length r.src;
    s

  let expect_end r =
    if remaining r = 0 then Ok ()
    else Error (`Malformed "trailing bytes after message")
end
