type key = { k0 : int64; k1 : int64 }

let key_of_string s =
  if String.length s <> 16 then
    invalid_arg "Siphash.key_of_string: key must be 16 bytes";
  { k0 = Byteskit.Bytes_ops.get_u64_le s 0; k1 = Byteskit.Bytes_ops.get_u64_le s 8 }

let key_to_string { k0; k1 } =
  let b = Bytes.create 16 in
  Byteskit.Bytes_ops.set_u64_le b 0 k0;
  Byteskit.Bytes_ops.set_u64_le b 8 k1;
  Bytes.unsafe_to_string b

(* The state lives in four local refs that never escape, so ocamlopt
   keeps them as unboxed registers; a helper taking or returning the
   state would box it. That is also why the SipRound is written out in
   the loop below rather than called. Word [n] (the last iteration but
   one) is the final block: the remaining bytes, zero padding and the
   length in the top byte. The last iteration is the finalization:
   [v2 ^= 0xff], then four rounds instead of two, absorbing [m = 0]. *)
let[@inline] sip k0 k1 msg =
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L)
  and v1 = ref (Int64.logxor k1 0x646f72616e646f6dL)
  and v2 = ref (Int64.logxor k0 0x6c7967656e657261L)
  and v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  let len = String.length msg in
  let n = len / 8 in
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xFF)) 56) in
  for i = 8 * n to len - 1 do
    last :=
      Int64.logor !last
        (Int64.shift_left
           (Int64.of_int (Char.code (String.unsafe_get msg i)))
           (8 * (i land 7)))
  done;
  for w = 0 to n + 1 do
    let final = w > n in
    let m =
      if w < n then String.get_int64_le msg (8 * w)
      else if final then 0L
      else !last
    in
    if final then v2 := Int64.logxor !v2 0xFFL else v3 := Int64.logxor !v3 m;
    for _ = 1 to if final then 4 else 2 do
      v0 := Int64.add !v0 !v1;
      v1 := Int64.logor (Int64.shift_left !v1 13) (Int64.shift_right_logical !v1 51);
      v1 := Int64.logxor !v1 !v0;
      v0 := Int64.logor (Int64.shift_left !v0 32) (Int64.shift_right_logical !v0 32);
      v2 := Int64.add !v2 !v3;
      v3 := Int64.logor (Int64.shift_left !v3 16) (Int64.shift_right_logical !v3 48);
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := Int64.logor (Int64.shift_left !v3 21) (Int64.shift_right_logical !v3 43);
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := Int64.logor (Int64.shift_left !v1 17) (Int64.shift_right_logical !v1 47);
      v1 := Int64.logxor !v1 !v2;
      v2 := Int64.logor (Int64.shift_left !v2 32) (Int64.shift_right_logical !v2 32)
    done;
    v0 := Int64.logxor !v0 m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let hash { k0; k1 } msg = sip k0 k1 msg

let hash_with keys i msg =
  sip (String.get_int64_le keys (16 * i)) (String.get_int64_le keys (16 * i + 8)) msg

let hash_to_bytes key msg =
  let b = Bytes.create 8 in
  Byteskit.Bytes_ops.set_u64_le b 0 (hash key msg);
  Bytes.unsafe_to_string b
