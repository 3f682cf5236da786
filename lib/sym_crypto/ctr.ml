let iv_size = 8

(* Block j of the keystream is E(iv || le64 j); each block is
   generated into one scratch buffer and XORed straight into [out]. *)
let transform cipher ~iv data =
  if String.length iv <> iv_size then
    invalid_arg "Ctr: iv must be 8 bytes";
  let n = String.length data in
  let out = Bytes.create n in
  let blk = Bytes.create Feistel.block_size in
  let iv_word = String.get_int64_le iv 0 in
  for j = 0 to ((n + Feistel.block_size - 1) / Feistel.block_size) - 1 do
    Bytes.set_int64_le blk 0 iv_word;
    Bytes.set_int64_le blk 8 (Int64.of_int j);
    Feistel.encrypt_in_place cipher blk;
    let base = j * Feistel.block_size in
    for k = 0 to Int.min Feistel.block_size (n - base) - 1 do
      Bytes.unsafe_set out (base + k)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get data (base + k))
           lxor Char.code (Bytes.unsafe_get blk k)))
    done
  done;
  Bytes.unsafe_to_string out

let keystream cipher ~iv n =
  if n < 0 then invalid_arg "Ctr.keystream: negative length";
  transform cipher ~iv (String.make n '\000')
