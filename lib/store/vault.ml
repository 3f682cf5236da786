(* Durable epoch vault: a tiny two-slot counter written through
   [Backend] separately from the journal tail, so losing the journal's
   last appended bytes (torn write, dropped fsync) cannot regress the
   highest epoch the leader ever granted.

   Image layout (37 bytes):

     "EVLT" version:u8  slot0(16)  slot1(16)
     slot := epoch:u64be sum:u64be

   [sum] is FNV-1a 64 of (magic, slot index, epoch bytes) — integrity
   against torn writes, not against an adversary: the disk is trusted
   hardware in the paper's model, only failure-prone. Writes alternate
   slots and never touch the slot holding the current maximum, so any
   single torn or lost slot write leaves a valid older slot behind and
   [get] degrades monotonically instead of to garbage. *)

let magic = "EVLT"
let version = 1
let header_len = String.length magic + 1
let slot_len = 16
let default_file = "epoch_vault"

let fnv64 parts =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun s ->
      String.iter
        (fun c ->
          h := Int64.logxor !h (Int64.of_int (Char.code c));
          h := Int64.mul !h prime)
        s)
    parts;
  !h

let u64_to_bytes v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (56 - (8 * i))) 0xffL)))

let u64_of_bytes s off =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let slot_sum ~index epoch_bytes = fnv64 [ magic; String.make 1 (Char.chr index); epoch_bytes ]

let encode_slot ~index epoch =
  let eb = u64_to_bytes (Int64.of_int epoch) in
  eb ^ u64_to_bytes (slot_sum ~index eb)

let decode_slot ~index bytes off =
  if String.length bytes < off + slot_len then None
  else
    let eb = String.sub bytes off 8 in
    let sum = u64_of_bytes bytes (off + 8) in
    if Int64.equal sum (slot_sum ~index eb) then
      let e = u64_of_bytes eb 0 in
      if Int64.compare e 0L >= 0 && Int64.compare e (Int64.of_int max_int) <= 0
      then Some (Int64.to_int e)
      else None
    else None

type t = {
  disk : Backend.t option;
  file : string;
  mutable slots : int option array;  (* decoded epoch per slot *)
}

let get t =
  Array.fold_left
    (fun acc s -> match s with Some e when e > acc -> e | _ -> acc)
    0 t.slots

let contents t =
  let slot i = match t.slots.(i) with Some e -> encode_slot ~index:i e | None -> String.make slot_len '\x00' in
  magic ^ String.make 1 (Char.chr version) ^ slot 0 ^ slot 1

let decode_image bytes =
  let ok_header =
    String.length bytes >= header_len
    && String.sub bytes 0 (String.length magic) = magic
    && Char.code bytes.[String.length magic] = version
  in
  if not ok_header then [| None; None |]
  else
    [|
      decode_slot ~index:0 bytes header_len;
      decode_slot ~index:1 bytes (header_len + slot_len);
    |]

let publish t =
  match t.disk with
  | None -> ()
  | Some d -> Backend.write_synced d ~file:t.file ~off:0 (contents t)

let of_bytes ?(file = default_file) ?disk bytes =
  let t = { disk; file; slots = decode_image bytes } in
  publish t;
  t

let create ?(file = default_file) ?disk () =
  match disk with
  | Some d -> (
      match Backend.read d ~file with
      | Some bytes when String.length bytes > 0 ->
          { disk; file; slots = decode_image bytes }
      | Some _ | None ->
          let t = { disk; file; slots = [| None; None |] } in
          publish t;
          t)
  | None -> { disk; file; slots = [| None; None |] }

let load ?(file = default_file) ~disk () = create ~file ~disk ()

(* Overwrite the slot NOT holding the current maximum, so a crash at
   any byte of this write leaves the previous maximum decodable. *)
let put t epoch =
  if epoch > get t then begin
    let keep =
      match (t.slots.(0), t.slots.(1)) with
      | Some a, Some b -> if a >= b then 0 else 1
      | Some _, None -> 0
      | None, (Some _ | None) -> 1
    in
    let victim = 1 - keep in
    t.slots.(victim) <- Some epoch;
    match t.disk with
    | None -> ()
    | Some d ->
        Backend.write_synced d ~file:t.file
          ~off:(header_len + (victim * slot_len))
          (encode_slot ~index:victim epoch)
  end
