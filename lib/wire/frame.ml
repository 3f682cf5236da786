open Byteskit

type agent = string

type label =
  | Req_open
  | Ack_open
  | Connection_denied
  | Legacy_auth1
  | Legacy_auth2
  | Legacy_auth3
  | New_key
  | New_key_ack
  | Legacy_req_close
  | Close_connection
  | Mem_joined
  | Mem_removed
  | Auth_init_req
  | Auth_key_dist
  | Auth_ack_key
  | Admin_msg
  | Admin_ack
  | Req_close
  | App_data
  | Recovery_challenge
  | Recovery_response
  | View_resync_req
  | Cold_restart
  | Cold_restart_challenge
  | Cold_restart_ack
  | Repl_record
  | Repl_ack
  | Repl_fetch
  | Repl_stale

type t = { label : label; sender : agent; recipient : agent; body : string }

let all_labels =
  [
    Req_open; Ack_open; Connection_denied; Legacy_auth1; Legacy_auth2;
    Legacy_auth3; New_key; New_key_ack; Legacy_req_close; Close_connection;
    Mem_joined; Mem_removed; Auth_init_req; Auth_key_dist; Auth_ack_key;
    Admin_msg; Admin_ack; Req_close; App_data; Recovery_challenge;
    Recovery_response; View_resync_req; Cold_restart; Cold_restart_challenge;
    Cold_restart_ack; Repl_record; Repl_ack; Repl_fetch; Repl_stale;
  ]

let label_tag = function
  | Req_open -> 1
  | Ack_open -> 2
  | Connection_denied -> 3
  | Legacy_auth1 -> 4
  | Legacy_auth2 -> 5
  | Legacy_auth3 -> 6
  | New_key -> 7
  | New_key_ack -> 8
  | Legacy_req_close -> 9
  | Close_connection -> 10
  | Mem_joined -> 11
  | Mem_removed -> 12
  | Auth_init_req -> 13
  | Auth_key_dist -> 14
  | Auth_ack_key -> 15
  | Admin_msg -> 16
  | Admin_ack -> 17
  | Req_close -> 18
  | App_data -> 19
  | Recovery_challenge -> 20
  | Recovery_response -> 21
  | View_resync_req -> 22
  | Cold_restart -> 23
  | Cold_restart_challenge -> 24
  | Cold_restart_ack -> 25
  | Repl_record -> 26
  | Repl_ack -> 27
  | Repl_fetch -> 28
  | Repl_stale -> 29

let label_of_tag = function
  | 1 -> Some Req_open
  | 2 -> Some Ack_open
  | 3 -> Some Connection_denied
  | 4 -> Some Legacy_auth1
  | 5 -> Some Legacy_auth2
  | 6 -> Some Legacy_auth3
  | 7 -> Some New_key
  | 8 -> Some New_key_ack
  | 9 -> Some Legacy_req_close
  | 10 -> Some Close_connection
  | 11 -> Some Mem_joined
  | 12 -> Some Mem_removed
  | 13 -> Some Auth_init_req
  | 14 -> Some Auth_key_dist
  | 15 -> Some Auth_ack_key
  | 16 -> Some Admin_msg
  | 17 -> Some Admin_ack
  | 18 -> Some Req_close
  | 19 -> Some App_data
  | 20 -> Some Recovery_challenge
  | 21 -> Some Recovery_response
  | 22 -> Some View_resync_req
  | 23 -> Some Cold_restart
  | 24 -> Some Cold_restart_challenge
  | 25 -> Some Cold_restart_ack
  | 26 -> Some Repl_record
  | 27 -> Some Repl_ack
  | 28 -> Some Repl_fetch
  | 29 -> Some Repl_stale
  | _ -> None

let label_to_string = function
  | Req_open -> "ReqOpen"
  | Ack_open -> "AckOpen"
  | Connection_denied -> "ConnectionDenied"
  | Legacy_auth1 -> "LegacyAuth1"
  | Legacy_auth2 -> "LegacyAuth2"
  | Legacy_auth3 -> "LegacyAuth3"
  | New_key -> "NewKey"
  | New_key_ack -> "NewKeyAck"
  | Legacy_req_close -> "LegacyReqClose"
  | Close_connection -> "CloseConnection"
  | Mem_joined -> "MemJoined"
  | Mem_removed -> "MemRemoved"
  | Auth_init_req -> "AuthInitReq"
  | Auth_key_dist -> "AuthKeyDist"
  | Auth_ack_key -> "AuthAckKey"
  | Admin_msg -> "AdminMsg"
  | Admin_ack -> "Ack"
  | Req_close -> "ReqClose"
  | App_data -> "AppData"
  | Recovery_challenge -> "RecoveryChallenge"
  | Recovery_response -> "RecoveryResponse"
  | View_resync_req -> "ViewResyncReq"
  | Cold_restart -> "ColdRestart"
  | Cold_restart_challenge -> "ColdRestartChallenge"
  | Cold_restart_ack -> "ColdRestartAck"
  | Repl_record -> "ReplRecord"
  | Repl_ack -> "ReplAck"
  | Repl_fetch -> "ReplFetch"
  | Repl_stale -> "ReplStale"

let pp_label fmt l = Format.pp_print_string fmt (label_to_string l)

let pp fmt { label; sender; recipient; body } =
  Format.fprintf fmt "%a %s->%s (%d bytes)" pp_label label sender recipient
    (String.length body)

let equal a b =
  a.label = b.label && a.sender = b.sender && a.recipient = b.recipient
  && a.body = b.body

let make ~label ~sender ~recipient ~body = { label; sender; recipient; body }

let encode { label; sender; recipient; body } =
  let w = Cursor.Writer.create () in
  Cursor.Writer.u8 w (label_tag label);
  Cursor.Writer.bytes w sender;
  Cursor.Writer.bytes w recipient;
  Cursor.Writer.bytes w body;
  Cursor.Writer.contents w

let decode s =
  let open Cursor in
  let r = Reader.of_string s in
  let result =
    let* tag = Reader.u8 r in
    match label_of_tag tag with
    | None -> Error (`Malformed (Printf.sprintf "unknown frame label %d" tag))
    | Some label ->
        let* sender = Reader.bytes r in
        let* recipient = Reader.bytes r in
        let* body = Reader.bytes r in
        let* () = Reader.expect_end r in
        Ok { label; sender; recipient; body }
  in
  Result.map_error (fun e -> Format.asprintf "%a" Reader.pp_error e) result

let header_ad ~label ~sender ~recipient =
  let w = Cursor.Writer.create () in
  Cursor.Writer.u8 w (label_tag label);
  Cursor.Writer.bytes w sender;
  Cursor.Writer.bytes w recipient;
  Cursor.Writer.contents w

let ad { label; sender; recipient; body = _ } = header_ad ~label ~sender ~recipient
