open Byteskit

let ( let* ) = Cursor.( let* )

type agent = string

type auth_init = { a : agent; l : agent; n1 : Nonce.t }
type auth_key_dist = { l : agent; a : agent; n1 : Nonce.t; n2 : Nonce.t; ka : string }
type auth_ack_key = { n2 : Nonce.t; n3 : Nonce.t }

type admin_body = {
  l : agent;
  a : agent;
  expected : Nonce.t;
  next : Nonce.t;
  x : Admin.t;
}

type admin_ack = { a : agent; l : agent; echo : Nonce.t; next : Nonce.t }
type req_close = { a : agent; l : agent }

type legacy_auth2 = {
  l : agent;
  a : agent;
  n1 : Nonce.t;
  n2 : Nonce.t;
  ka : string;
  kg : string;
  epoch : int;
}

type legacy_auth3 = { n2 : Nonce.t }
type legacy_new_key = { kg : string; epoch : int }
type legacy_key_ack = { kg : string }
type member_event = { who : agent }

(* Every payload is framed with a one-byte type tag so that a ciphertext
   sealed as one payload kind can never decode as another, even under
   the same key. *)

let with_tag tag fill =
  let w = Cursor.Writer.create () in
  Cursor.Writer.u8 w tag;
  fill w;
  Cursor.Writer.contents w

let decoded tag s parse =
  let open Cursor in
  let r = Reader.of_string s in
  let result =
    let* t = Reader.u8 r in
    if t <> tag then Error (`Malformed (Printf.sprintf "payload tag %d, expected %d" t tag))
    else
      let* v = parse r in
      let* () = Reader.expect_end r in
      Ok v
  in
  Result.map_error (fun e -> Format.asprintf "%a" Reader.pp_error e) result

let nonce w n = Cursor.Writer.raw w (Nonce.raw n)

let read_nonce r =
  let open Cursor in
  let* s = Reader.raw r Nonce.size in
  Ok (Nonce.of_raw s)

let encode_auth_init ({ a; l; n1 } : auth_init) =
  with_tag 1 (fun w ->
      Cursor.Writer.bytes w a;
      Cursor.Writer.bytes w l;
      nonce w n1)

let decode_auth_init s =
  decoded 1 s (fun r ->
      let open Cursor in
      let* a = Reader.bytes r in
      let* l = Reader.bytes r in
      let* n1 = read_nonce r in
      Ok ({ a; l; n1 } : auth_init))

let encode_auth_key_dist ({ l; a; n1; n2; ka } : auth_key_dist) =
  with_tag 2 (fun w ->
      Cursor.Writer.bytes w l;
      Cursor.Writer.bytes w a;
      nonce w n1;
      nonce w n2;
      Cursor.Writer.bytes w ka)

let decode_auth_key_dist s =
  decoded 2 s (fun r ->
      let open Cursor in
      let* l = Reader.bytes r in
      let* a = Reader.bytes r in
      let* n1 = read_nonce r in
      let* n2 = read_nonce r in
      let* ka = Reader.bytes r in
      Ok ({ l; a; n1; n2; ka } : auth_key_dist))

let encode_auth_ack_key ({ n2; n3 } : auth_ack_key) =
  with_tag 3 (fun w ->
      nonce w n2;
      nonce w n3)

let decode_auth_ack_key s =
  decoded 3 s (fun r ->
      let* n2 = read_nonce r in
      let* n3 = read_nonce r in
      Ok ({ n2; n3 } : auth_ack_key))

let encode_admin_body ({ l; a; expected; next; x } : admin_body) =
  with_tag 4 (fun w ->
      Cursor.Writer.bytes w l;
      Cursor.Writer.bytes w a;
      nonce w expected;
      nonce w next;
      Cursor.Writer.bytes w (Admin.encode x))

let decode_admin_body s =
  decoded 4 s (fun r ->
      let open Cursor in
      let* l = Reader.bytes r in
      let* a = Reader.bytes r in
      let* expected = read_nonce r in
      let* next = read_nonce r in
      let* xs = Reader.bytes r in
      match Admin.decode xs with
      | Ok x -> Ok ({ l; a; expected; next; x } : admin_body)
      | Error e -> Error (`Malformed ("admin payload: " ^ e)))

let encode_admin_ack ({ a; l; echo; next } : admin_ack) =
  with_tag 5 (fun w ->
      Cursor.Writer.bytes w a;
      Cursor.Writer.bytes w l;
      nonce w echo;
      nonce w next)

let decode_admin_ack s =
  decoded 5 s (fun r ->
      let open Cursor in
      let* a = Reader.bytes r in
      let* l = Reader.bytes r in
      let* echo = read_nonce r in
      let* next = read_nonce r in
      Ok ({ a; l; echo; next } : admin_ack))

let encode_req_close ({ a; l } : req_close) =
  with_tag 6 (fun w ->
      Cursor.Writer.bytes w a;
      Cursor.Writer.bytes w l)

let decode_req_close s =
  decoded 6 s (fun r ->
      let open Cursor in
      let* a = Reader.bytes r in
      let* l = Reader.bytes r in
      Ok ({ a; l } : req_close))

let encode_legacy_auth2 ({ l; a; n1; n2; ka; kg; epoch } : legacy_auth2) =
  with_tag 7 (fun w ->
      Cursor.Writer.bytes w l;
      Cursor.Writer.bytes w a;
      nonce w n1;
      nonce w n2;
      Cursor.Writer.bytes w ka;
      Cursor.Writer.bytes w kg;
      Cursor.Writer.u32 w epoch)

let decode_legacy_auth2 s =
  decoded 7 s (fun r ->
      let open Cursor in
      let* l = Reader.bytes r in
      let* a = Reader.bytes r in
      let* n1 = read_nonce r in
      let* n2 = read_nonce r in
      let* ka = Reader.bytes r in
      let* kg = Reader.bytes r in
      let* epoch = Reader.u32 r in
      Ok ({ l; a; n1; n2; ka; kg; epoch } : legacy_auth2))

let encode_legacy_auth3 ({ n2 } : legacy_auth3) = with_tag 8 (fun w -> nonce w n2)

let decode_legacy_auth3 s =
  decoded 8 s (fun r ->
      let* n2 = read_nonce r in
      Ok ({ n2 } : legacy_auth3))

let encode_legacy_new_key ({ kg; epoch } : legacy_new_key) =
  with_tag 9 (fun w ->
      Cursor.Writer.bytes w kg;
      Cursor.Writer.u32 w epoch)

let decode_legacy_new_key s =
  decoded 9 s (fun r ->
      let open Cursor in
      let* kg = Reader.bytes r in
      let* epoch = Reader.u32 r in
      Ok ({ kg; epoch } : legacy_new_key))

let encode_legacy_key_ack ({ kg } : legacy_key_ack) = with_tag 10 (fun w -> Cursor.Writer.bytes w kg)

let decode_legacy_key_ack s =
  decoded 10 s (fun r ->
      let open Cursor in
      let* kg = Reader.bytes r in
      Ok ({ kg } : legacy_key_ack))

let encode_member_event ({ who } : member_event) = with_tag 11 (fun w -> Cursor.Writer.bytes w who)

let decode_member_event s =
  decoded 11 s (fun r ->
      let open Cursor in
      let* who = Reader.bytes r in
      Ok ({ who } : member_event))

type app_data = { author : agent; body : string }

let encode_app_data ({ author; body } : app_data) =
  with_tag 12 (fun w ->
      Cursor.Writer.bytes w author;
      Cursor.Writer.bytes w body)

let decode_app_data s =
  decoded 12 s (fun r ->
      let open Cursor in
      let* author = Reader.bytes r in
      let* body = Reader.bytes r in
      Ok ({ author; body } : app_data))

type recovery_challenge = { l : agent; a : agent; nc : Nonce.t }

let encode_recovery_challenge ({ l; a; nc } : recovery_challenge) =
  with_tag 13 (fun w ->
      Cursor.Writer.bytes w l;
      Cursor.Writer.bytes w a;
      nonce w nc)

let decode_recovery_challenge s =
  decoded 13 s (fun r ->
      let open Cursor in
      let* l = Reader.bytes r in
      let* a = Reader.bytes r in
      let* nc = read_nonce r in
      Ok ({ l; a; nc } : recovery_challenge))

type recovery_response = { a : agent; l : agent; echo : Nonce.t; next : Nonce.t }

let encode_recovery_response ({ a; l; echo; next } : recovery_response) =
  with_tag 14 (fun w ->
      Cursor.Writer.bytes w a;
      Cursor.Writer.bytes w l;
      nonce w echo;
      nonce w next)

let decode_recovery_response s =
  decoded 14 s (fun r ->
      let open Cursor in
      let* a = Reader.bytes r in
      let* l = Reader.bytes r in
      let* echo = read_nonce r in
      let* next = read_nonce r in
      Ok ({ a; l; echo; next } : recovery_response))

type view_resync = { a : agent; l : agent; digest : string; epoch : int }

let encode_view_resync ({ a; l; digest; epoch } : view_resync) =
  with_tag 15 (fun w ->
      Cursor.Writer.bytes w a;
      Cursor.Writer.bytes w l;
      Cursor.Writer.bytes w digest;
      Cursor.Writer.u32 w epoch)

let decode_view_resync s =
  decoded 15 s (fun r ->
      let open Cursor in
      let* a = Reader.bytes r in
      let* l = Reader.bytes r in
      let* digest = Reader.bytes r in
      let* epoch = Reader.u32 r in
      Ok ({ a; l; digest; epoch } : view_resync))

type cold_restart = { l : agent; a : agent; epoch : int; nb : Nonce.t }

let encode_cold_restart ({ l; a; epoch; nb } : cold_restart) =
  with_tag 16 (fun w ->
      Cursor.Writer.bytes w l;
      Cursor.Writer.bytes w a;
      Cursor.Writer.u32 w epoch;
      nonce w nb)

let decode_cold_restart s =
  decoded 16 s (fun r ->
      let open Cursor in
      let* l = Reader.bytes r in
      let* a = Reader.bytes r in
      let* epoch = Reader.u32 r in
      let* nb = read_nonce r in
      Ok ({ l; a; epoch; nb } : cold_restart))

type cold_restart_challenge = { a : agent; l : agent; echo : Nonce.t; nm : Nonce.t }

let encode_cold_restart_challenge
    ({ a; l; echo; nm } : cold_restart_challenge) =
  with_tag 17 (fun w ->
      Cursor.Writer.bytes w a;
      Cursor.Writer.bytes w l;
      nonce w echo;
      nonce w nm)

let decode_cold_restart_challenge s =
  decoded 17 s (fun r ->
      let open Cursor in
      let* a = Reader.bytes r in
      let* l = Reader.bytes r in
      let* echo = read_nonce r in
      let* nm = read_nonce r in
      Ok ({ a; l; echo; nm } : cold_restart_challenge))

type cold_restart_ack = { l : agent; a : agent; echo : Nonce.t }

let encode_cold_restart_ack ({ l; a; echo } : cold_restart_ack) =
  with_tag 18 (fun w ->
      Cursor.Writer.bytes w l;
      Cursor.Writer.bytes w a;
      nonce w echo)

let decode_cold_restart_ack s =
  decoded 18 s (fun r ->
      let open Cursor in
      let* l = Reader.bytes r in
      let* a = Reader.bytes r in
      let* echo = read_nonce r in
      Ok ({ l; a; echo } : cold_restart_ack))

(* --- warm-standby journal replication (manager to manager) --- *)

type repl_op =
  | Repl_append
  | Repl_snapshot
  | Repl_heartbeat
  | Repl_queue
  | Repl_suspicion

let repl_op_tag = function
  | Repl_append -> 1
  | Repl_snapshot -> 2
  | Repl_heartbeat -> 3
  | Repl_queue -> 4
  | Repl_suspicion -> 5

let repl_op_of_tag = function
  | 1 -> Ok Repl_append
  | 2 -> Ok Repl_snapshot
  | 3 -> Ok Repl_heartbeat
  | 4 -> Ok Repl_queue
  | 5 -> Ok Repl_suspicion
  | n -> Error (`Malformed (Printf.sprintf "unknown repl op %d" n))

type repl_record = {
  l : agent;
  b : agent;
  term : int;
  seq : int;
  op : repl_op;
  data : string;
}

let encode_repl_record ({ l; b; term; seq; op; data } : repl_record) =
  with_tag 19 (fun w ->
      Cursor.Writer.bytes w l;
      Cursor.Writer.bytes w b;
      Cursor.Writer.u32 w term;
      Cursor.Writer.u32 w seq;
      Cursor.Writer.u8 w (repl_op_tag op);
      Cursor.Writer.bytes w data)

let decode_repl_record s =
  decoded 19 s (fun r ->
      let open Cursor in
      let* l = Reader.bytes r in
      let* b = Reader.bytes r in
      let* term = Reader.u32 r in
      let* seq = Reader.u32 r in
      let* op_tag = Reader.u8 r in
      let* op = repl_op_of_tag op_tag in
      let* data = Reader.bytes r in
      Ok ({ l; b; term; seq; op; data } : repl_record))

type repl_ack = { b : agent; l : agent; term : int; upto : int }

let encode_repl_ack ({ b; l; term; upto } : repl_ack) =
  with_tag 20 (fun w ->
      Cursor.Writer.bytes w b;
      Cursor.Writer.bytes w l;
      Cursor.Writer.u32 w term;
      Cursor.Writer.u32 w upto)

let decode_repl_ack s =
  decoded 20 s (fun r ->
      let open Cursor in
      let* b = Reader.bytes r in
      let* l = Reader.bytes r in
      let* term = Reader.u32 r in
      let* upto = Reader.u32 r in
      Ok ({ b; l; term; upto } : repl_ack))

type repl_fetch = { b : agent; l : agent; term : int; from_ : int }

let encode_repl_fetch ({ b; l; term; from_ } : repl_fetch) =
  with_tag 21 (fun w ->
      Cursor.Writer.bytes w b;
      Cursor.Writer.bytes w l;
      Cursor.Writer.u32 w term;
      Cursor.Writer.u32 w from_)

let decode_repl_fetch s =
  decoded 21 s (fun r ->
      let open Cursor in
      let* b = Reader.bytes r in
      let* l = Reader.bytes r in
      let* term = Reader.u32 r in
      let* from_ = Reader.u32 r in
      Ok ({ b; l; term; from_ } : repl_fetch))

type repl_stale = {
  b : agent;
  l : agent;
  stale_term : int;
  term : int;
  primary : agent;
}

let encode_repl_stale ({ b; l; stale_term; term; primary } : repl_stale) =
  with_tag 22 (fun w ->
      Cursor.Writer.bytes w b;
      Cursor.Writer.bytes w l;
      Cursor.Writer.u32 w stale_term;
      Cursor.Writer.u32 w term;
      Cursor.Writer.bytes w primary)

let decode_repl_stale s =
  decoded 22 s (fun r ->
      let open Cursor in
      let* b = Reader.bytes r in
      let* l = Reader.bytes r in
      let* stale_term = Reader.u32 r in
      let* term = Reader.u32 r in
      let* primary = Reader.bytes r in
      Ok ({ b; l; stale_term; term; primary } : repl_stale))
