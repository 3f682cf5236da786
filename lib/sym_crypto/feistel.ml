let block_size = 16
let rounds = 8

(* The round subkeys packed as [rounds] 16-byte SipHash keys. *)
type t = string

(* Subkey i = (PRF(master, "feistel-subkey:i:0"), PRF(master, "feistel-subkey:i:1")). *)
let labels =
  Array.init (2 * rounds) (fun j ->
      Printf.sprintf "feistel-subkey:%d:%d" (j / 2) (j mod 2))

let of_key k =
  if String.length k <> 16 then invalid_arg "Feistel.of_key: key must be 16 bytes";
  let master = Siphash.key_of_string k in
  let b = Bytes.create (16 * rounds) in
  Array.iteri (fun j label -> Bytes.set_int64_le b (8 * j) (Siphash.hash master label)) labels;
  Bytes.unsafe_to_string b

(* F_i(x) is SipHash-2-4 under subkey i of the 9 bytes [i] ‖ le64 [x]:
   word [m0] is [i] and the low seven bytes of [x], the final block
   [m1] is the top byte of [x] under the length 9. Rounds 0-1 compress
   [m0], 2-3 compress [m1] and 4-7 finalize. This is {!Siphash.hash}
   written out for one message shape, in this module, so that the
   network loops below keep the state in registers: a call into
   [Siphash] would box [x] and the result, and building the message
   would allocate it. *)
let[@inline] round_f t i x =
  let m0 = Int64.logor (Int64.of_int i) (Int64.shift_left x 8)
  and m1 = Int64.logor (Int64.shift_right_logical x 56) 0x0900000000000000L in
  let k0 = String.get_int64_le t (16 * i)
  and k1 = String.get_int64_le t (16 * i + 8) in
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L)
  and v1 = ref (Int64.logxor k1 0x646f72616e646f6dL)
  and v2 = ref (Int64.logxor k0 0x6c7967656e657261L)
  and v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  v3 := Int64.logxor !v3 m0;
  for r = 0 to 7 do
    if r = 2 then begin
      v0 := Int64.logxor !v0 m0;
      v3 := Int64.logxor !v3 m1
    end
    else if r = 4 then begin
      v0 := Int64.logxor !v0 m1;
      v2 := Int64.logxor !v2 0xFFL
    end;
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
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

(* Round i replaces the right half with [left XOR F_i(right)]. *)
let encrypt_in_place t b =
  let l = ref (Bytes.get_int64_le b 0) and r = ref (Bytes.get_int64_le b 8) in
  for i = 0 to rounds - 1 do
    let f = round_f t i !r in
    let r' = Int64.logxor !l f in
    l := !r;
    r := r'
  done;
  Bytes.set_int64_le b 0 !l;
  Bytes.set_int64_le b 8 !r

let decrypt_in_place t b =
  let l = ref (Bytes.get_int64_le b 0) and r = ref (Bytes.get_int64_le b 8) in
  for i = rounds - 1 downto 0 do
    let f = round_f t i !l in
    let l' = Int64.logxor !r f in
    r := !l;
    l := l'
  done;
  Bytes.set_int64_le b 0 !l;
  Bytes.set_int64_le b 8 !r

let on_block f t b =
  if String.length b <> block_size then
    invalid_arg "Feistel: block must be 16 bytes";
  let b = Bytes.of_string b in
  f t b;
  Bytes.unsafe_to_string b

let encrypt_block t b = on_block encrypt_in_place t b
let decrypt_block t b = on_block decrypt_in_place t b
