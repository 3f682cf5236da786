open Byteskit

type t =
  | New_group_key of { key : string; epoch : int }
  | Member_joined of string
  | Member_left of string
  | Member_expelled of string
  | Membership_snapshot of string list
  | Notice of string
  | View_digest of { digest : string; epoch : int }
  | Queued of { seq : int; stale : bool; x : t }

let tag_of = function
  | New_group_key _ -> 1
  | Member_joined _ -> 2
  | Member_left _ -> 3
  | Member_expelled _ -> 4
  | Membership_snapshot _ -> 5
  | Notice _ -> 6
  | View_digest _ -> 7
  | Queued _ -> 8

let rec encode t =
  let w = Cursor.Writer.create () in
  Cursor.Writer.u8 w (tag_of t);
  (match t with
  | New_group_key { key; epoch } ->
      Cursor.Writer.bytes w key;
      Cursor.Writer.u32 w epoch
  | Member_joined who | Member_left who | Member_expelled who ->
      Cursor.Writer.bytes w who
  | Membership_snapshot members ->
      Cursor.Writer.u32 w (List.length members);
      List.iter (Cursor.Writer.bytes w) members
  | Notice text -> Cursor.Writer.bytes w text
  | View_digest { digest; epoch } ->
      Cursor.Writer.bytes w digest;
      Cursor.Writer.u32 w epoch
  | Queued { seq; stale; x } ->
      Cursor.Writer.u32 w seq;
      Cursor.Writer.u8 w (if stale then 1 else 0);
      Cursor.Writer.bytes w (encode x));
  Cursor.Writer.contents w

(* [Queued] may wrap any plain payload but never another [Queued]:
   one level of nesting is all the drain path produces, and rejecting
   deeper towers keeps decode depth (and redelivery ambiguity)
   bounded on adversarial input. *)
let rec decode_at ~depth s =
  let open Cursor in
  let r = Reader.of_string s in
  let result =
    let* tag = Reader.u8 r in
    let* payload =
      match tag with
      | 1 ->
          let* key = Reader.bytes r in
          let* epoch = Reader.u32 r in
          Ok (New_group_key { key; epoch })
      | 2 ->
          let* who = Reader.bytes r in
          Ok (Member_joined who)
      | 3 ->
          let* who = Reader.bytes r in
          Ok (Member_left who)
      | 4 ->
          let* who = Reader.bytes r in
          Ok (Member_expelled who)
      | 5 ->
          let* n = Reader.u32 r in
          if n > 100_000 then Error (`Malformed "snapshot too large")
          else
            let rec loop acc k =
              if k = 0 then Ok (List.rev acc)
              else
                let* m = Reader.bytes r in
                loop (m :: acc) (k - 1)
            in
            let* members = loop [] n in
            Ok (Membership_snapshot members)
      | 6 ->
          let* text = Reader.bytes r in
          Ok (Notice text)
      | 7 ->
          let* digest = Reader.bytes r in
          let* epoch = Reader.u32 r in
          Ok (View_digest { digest; epoch })
      | 8 ->
          if depth > 0 then Error (`Malformed "nested queued payload")
          else
            let* seq = Reader.u32 r in
            let* stale_flag = Reader.u8 r in
            let* stale =
              match stale_flag with
              | 0 -> Ok false
              | 1 -> Ok true
              | _ -> Error (`Malformed "bad stale flag")
            in
            let* inner = Reader.bytes r in
            let* x =
              Result.map_error
                (fun e -> `Malformed e)
                (decode_at ~depth:(depth + 1) inner)
            in
            Ok (Queued { seq; stale; x })
      | n -> Error (`Malformed (Printf.sprintf "unknown admin tag %d" n))
    in
    let* () = Reader.expect_end r in
    Ok payload
  in
  Result.map_error (fun e -> Format.asprintf "%a" Reader.pp_error e) result

let decode s = decode_at ~depth:0 s

let equal a b = encode a = encode b

let rec pp fmt = function
  | New_group_key { epoch; _ } -> Format.fprintf fmt "NewGroupKey(epoch=%d)" epoch
  | Member_joined who -> Format.fprintf fmt "MemberJoined(%s)" who
  | Member_left who -> Format.fprintf fmt "MemberLeft(%s)" who
  | Member_expelled who -> Format.fprintf fmt "MemberExpelled(%s)" who
  | Membership_snapshot ms ->
      Format.fprintf fmt "MembershipSnapshot(%s)" (String.concat "," ms)
  | Notice text -> Format.fprintf fmt "Notice(%s)" text
  | View_digest { digest; epoch } ->
      Format.fprintf fmt "ViewDigest(epoch=%d,%s)" epoch
        (Byteskit.Hex.encode (String.sub digest 0 (min 4 (String.length digest))))
  | Queued { seq; stale; x } ->
      Format.fprintf fmt "Queued(seq=%d%s,%a)" seq
        (if stale then ",stale" else "")
        pp x

(* The digest key is public and fixed: a view digest is not a secret —
   its authenticity comes from the [K_a] seal of the AdminMsg or
   ViewResyncReq that carries it. SipHash just compresses (members,
   epoch) into 8 comparable bytes. *)
let digest_key = Sym_crypto.Siphash.key_of_string "enclaves-viewdig"

let view_digest ~members ~epoch =
  let w = Cursor.Writer.create () in
  Cursor.Writer.u32 w epoch;
  List.iter (Cursor.Writer.bytes w) (List.sort_uniq String.compare members);
  Sym_crypto.Siphash.hash_to_bytes digest_key (Cursor.Writer.contents w)
