let ct_equal a b =
  let la = String.length a and lb = String.length b in
  (* No early exit on length mismatch: always scan max(la, lb) bytes,
     reading 0 past either end, so timing reveals only the longer
     length — never the position where the inputs diverge. *)
  let n = if la > lb then la else lb in
  let acc = ref (la lxor lb) in
  for i = 0 to n - 1 do
    let ca = if i < la then Char.code a.[i] else 0
    and cb = if i < lb then Char.code b.[i] else 0 in
    acc := !acc lor (ca lxor cb)
  done;
  !acc = 0

let get_u64_le s off =
  let b = Bytes.unsafe_of_string s in
  Bytes.get_int64_le b off

let set_u64_le b off v = Bytes.set_int64_le b off v

let get_u32_be s off =
  let b = Bytes.unsafe_of_string s in
  Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

let set_u32_be b off v = Bytes.set_int32_be b off (Int32.of_int v)

let get_u16_be s off =
  let b = Bytes.unsafe_of_string s in
  Bytes.get_uint16_be b off

let set_u16_be b off v = Bytes.set_uint16_be b off v

let pad_to ~block s =
  if block <= 0 then invalid_arg "Bytes_ops.pad_to: block must be positive";
  let n = String.length s in
  let rem = n mod block in
  let target = if n = 0 then block else if rem = 0 then n else n + block - rem in
  s ^ String.make (target - n) '\000'
