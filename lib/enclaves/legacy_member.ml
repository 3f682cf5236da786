open Sym_crypto
module F = Wire.Frame
module P = Wire.Payload

type state =
  | S_not_connected
  | S_waiting_ack_open
  | S_waiting_auth2 of { n1 : Wire.Nonce.t }
  | S_connected of { ka : Key.t }
  | S_denied

type event =
  | Joined of { session_key : Key.t }
  | Join_denied
  | Group_key_updated of int
  | View_member_added of Types.agent
  | View_member_removed of Types.agent
  | App_received of { author : Types.agent; body : string }
  | Left
  | Rejected of { label : F.label option; reason : Types.reject_reason }

let pp_event fmt = function
  | Joined _ -> Format.pp_print_string fmt "Joined"
  | Join_denied -> Format.pp_print_string fmt "JoinDenied"
  | Group_key_updated epoch -> Format.fprintf fmt "GroupKeyUpdated(%d)" epoch
  | View_member_added who -> Format.fprintf fmt "ViewMemberAdded(%s)" who
  | View_member_removed who -> Format.fprintf fmt "ViewMemberRemoved(%s)" who
  | App_received { author; body } ->
      Format.fprintf fmt "AppReceived(%s: %s)" author body
  | Left -> Format.pp_print_string fmt "Left"
  | Rejected { label; reason } ->
      Format.fprintf fmt "Rejected(%s, %a)"
        (match label with Some l -> F.label_to_string l | None -> "?")
        Types.pp_reject_reason reason

type state_view =
  | Not_connected
  | Waiting_ack_open
  | Waiting_auth2 of Wire.Nonce.t
  | Connected of Key.t
  | Denied

type t = {
  self : Types.agent;
  leader : Types.agent;
  pa : Key.t;
  rng : Prng.Splitmix.t;
  mutable state : state;
  mutable group_key : Types.group_key option;
  mutable view : Types.agent list;
  mutable events_rev : event list;
}

let create ~self ~leader ~password ~rng =
  {
    self;
    leader;
    pa = Key.long_term ~user:self ~password;
    rng = Prng.Splitmix.split rng;
    state = S_not_connected;
    group_key = None;
    view = [];
    events_rev = [];
  }

let self t = t.self

let state t =
  match t.state with
  | S_not_connected -> Not_connected
  | S_waiting_ack_open -> Waiting_ack_open
  | S_waiting_auth2 { n1 } -> Waiting_auth2 n1
  | S_connected { ka } -> Connected ka
  | S_denied -> Denied

let is_connected t = match t.state with S_connected _ -> true | _ -> false
let group_key t = t.group_key
let group_view t = t.view

let session_key t =
  match t.state with S_connected { ka } -> Some ka | _ -> None

let drain_events t =
  let es = List.rev t.events_rev in
  t.events_rev <- [];
  es

let emit t e = t.events_rev <- e :: t.events_rev

let reject t ?label reason =
  emit t (Rejected { label; reason });
  []

let join t =
  match t.state with
  | S_not_connected | S_denied ->
      t.state <- S_waiting_ack_open;
      (* Plaintext pre-auth request: "A, req_open". *)
      [ F.make ~label:F.Req_open ~sender:t.self ~recipient:t.leader ~body:"" ]
  | S_waiting_ack_open | S_waiting_auth2 _ | S_connected _ -> []

let leave t =
  match t.state with
  | S_connected _ ->
      (* Plaintext close request — anybody could have sent this. *)
      [
        F.make ~label:F.Legacy_req_close ~sender:t.self ~recipient:t.leader
          ~body:"";
      ]
  | S_not_connected | S_waiting_ack_open | S_waiting_auth2 _ | S_denied -> []

let handle_ack_open t (frame : F.t) =
  match t.state with
  | S_waiting_ack_open ->
      (* No check whatsoever that this came from the leader. *)
      let n1 = Wire.Nonce.fresh t.rng in
      t.state <- S_waiting_auth2 { n1 };
      let plaintext = P.encode_auth_init { P.a = t.self; l = t.leader; n1 } in
      [
        Sealed_channel.legacy_seal ~rng:t.rng ~key:t.pa ~label:F.Legacy_auth1
          ~sender:t.self ~recipient:t.leader plaintext;
      ]
  | S_not_connected | S_waiting_auth2 _ | S_connected _ | S_denied ->
      reject t ~label:frame.F.label (Types.Wrong_state "not waiting for ack_open")

let handle_connection_denied t (frame : F.t) =
  match t.state with
  | S_waiting_ack_open | S_waiting_auth2 _ ->
      (* Attack A1: the denial is plaintext and unauthenticated, yet
         the legacy member obeys it and abandons the join. *)
      t.state <- S_denied;
      emit t Join_denied;
      []
  | S_not_connected | S_connected _ | S_denied ->
      reject t ~label:frame.F.label (Types.Wrong_state "no join in progress")

let handle_auth2 t (frame : F.t) =
  match t.state with
  | S_waiting_auth2 { n1 } -> (
      match Sealed_channel.legacy_open ~key:t.pa frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_legacy_auth2 plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.l; a; n1 = n1'; n2; ka; kg; epoch } ->
              if l <> t.leader || a <> t.self then
                reject t ~label:frame.F.label Types.Identity_mismatch
              else if not (Wire.Nonce.equal n1 n1') then
                reject t ~label:frame.F.label Types.Stale_nonce
              else if String.length ka <> Key.size || String.length kg <> Key.size
              then reject t ~label:frame.F.label (Types.Malformed "bad key length")
              else begin
                let ka = Key.of_raw Key.Session ka in
                t.state <- S_connected { ka };
                t.group_key <- Some { Types.key = Key.of_raw Key.Group kg; epoch };
                t.view <- [];
                emit t (Joined { session_key = ka });
                emit t (Group_key_updated epoch);
                let plaintext = P.encode_legacy_auth3 { P.n2 } in
                [
                  Sealed_channel.legacy_seal ~rng:t.rng ~key:ka
                    ~label:F.Legacy_auth3 ~sender:t.self ~recipient:t.leader
                    plaintext;
                ]
              end))
  | S_not_connected | S_waiting_ack_open | S_connected _ | S_denied ->
      reject t ~label:frame.F.label (Types.Wrong_state "not waiting for auth2")

let handle_new_key t (frame : F.t) =
  match t.state with
  | S_connected { ka } -> (
      match Sealed_channel.legacy_open ~key:ka frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_legacy_new_key plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.kg; epoch } ->
              if String.length kg <> Key.size then
                reject t ~label:frame.F.label (Types.Malformed "bad key length")
              else begin
                (* Attack A3 lives here: no freshness evidence is
                   required, so a replayed NewKey silently reverts the
                   member to an old group key. *)
                let kg_key = Key.of_raw Key.Group kg in
                t.group_key <- Some { Types.key = kg_key; epoch };
                emit t (Group_key_updated epoch);
                let plaintext = P.encode_legacy_key_ack { P.kg } in
                [
                  Sealed_channel.legacy_seal ~rng:t.rng ~key:kg_key
                    ~label:F.New_key_ack ~sender:t.self ~recipient:t.leader
                    plaintext;
                ]
              end))
  | S_not_connected | S_waiting_ack_open | S_waiting_auth2 _ | S_denied ->
      reject t ~label:frame.F.label (Types.Wrong_state "not connected")

let handle_member_event t (frame : F.t) ~removed =
  match (t.state, t.group_key) with
  | S_connected _, Some { Types.key; _ } -> (
      match Sealed_channel.legacy_open ~key frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_member_event plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.who } ->
              (* Attack A2 lives here: the event is sealed only under
                 K_g, which every member holds, and nothing proves it
                 came from the leader or is fresh. *)
              if removed then begin
                t.view <- List.filter (fun m -> m <> who) t.view;
                emit t (View_member_removed who)
              end
              else if not (List.mem who t.view) then begin
                t.view <- List.sort String.compare (who :: t.view);
                emit t (View_member_added who)
              end;
              []))
  | _ -> reject t ~label:frame.F.label (Types.Wrong_state "not connected")

let handle_close_connection t (frame : F.t) =
  match t.state with
  | S_connected _ ->
      (* Plaintext and unauthenticated, like the denial. *)
      t.state <- S_not_connected;
      t.group_key <- None;
      t.view <- [];
      emit t Left;
      []
  | S_not_connected | S_waiting_ack_open | S_waiting_auth2 _ | S_denied ->
      reject t ~label:frame.F.label (Types.Wrong_state "not connected")

let handle_app_data t (frame : F.t) =
  match t.group_key with
  | None -> reject t ~label:frame.F.label (Types.Wrong_state "no group key")
  | Some { Types.key; _ } -> (
      match Sealed_channel.open_group ~key frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_app_data plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.author; body } ->
              emit t (App_received { author; body });
              []))

let send_app t body =
  match (t.state, t.group_key) with
  | S_connected _, Some { Types.key; _ } ->
      let plaintext = P.encode_app_data { P.author = t.self; body } in
      [
        Sealed_channel.seal_group ~rng:t.rng ~key ~label:F.App_data
          ~sender:t.self ~recipient:t.leader plaintext;
      ]
  | _ -> []

let receive t bytes =
  match F.decode bytes with
  | Error e -> reject t (Types.Malformed e)
  | Ok frame -> (
      match frame.F.label with
      | F.Ack_open -> handle_ack_open t frame
      | F.Connection_denied -> handle_connection_denied t frame
      | F.Legacy_auth2 -> handle_auth2 t frame
      | F.New_key -> handle_new_key t frame
      | F.Mem_joined -> handle_member_event t frame ~removed:false
      | F.Mem_removed -> handle_member_event t frame ~removed:true
      | F.Close_connection -> handle_close_connection t frame
      | F.App_data -> handle_app_data t frame
      | F.Req_open | F.Legacy_auth1 | F.Legacy_auth3 | F.New_key_ack
      | F.Legacy_req_close | F.Auth_init_req | F.Auth_key_dist | F.Auth_ack_key
      | F.Admin_msg | F.Admin_ack | F.Req_close | F.Recovery_challenge
      | F.Recovery_response | F.View_resync_req | F.Cold_restart
      | F.Cold_restart_challenge | F.Cold_restart_ack | F.Repl_record
      | F.Repl_ack | F.Repl_fetch | F.Repl_stale ->
          reject t ~label:frame.F.label (Types.Unexpected_label frame.F.label))
