open Field

type bounds = { max_epoch : int; insider_epochs : int; max_nonces : int }

let default_bounds = { max_epoch = 3; insider_epochs = 2; max_nonces = 4 }

type member_state =
  | M_not_connected
  | M_waiting_ack
  | M_waiting_auth2 of int
  | M_connected of { epoch : int; sees_b : bool }
  | M_denied

type leader_state = L_idle | L_waiting_auth1 | L_waiting_auth3 of int | L_in_session

type state = {
  mem : member_state;
  lead : leader_state;
  lead_epoch : int;
  trace : Event.Set.t;
  next_nonce : int;
}

let pp_member_state fmt = function
  | M_not_connected -> Format.pp_print_string fmt "NotConnected"
  | M_waiting_ack -> Format.pp_print_string fmt "WaitingAckOpen"
  | M_waiting_auth2 n -> Format.fprintf fmt "WaitingAuth2(N%d)" n
  | M_connected { epoch; sees_b } ->
      Format.fprintf fmt "Connected(epoch=%d,sees_b=%b)" epoch sees_b
  | M_denied -> Format.pp_print_string fmt "Denied"

let pp_leader_state fmt = function
  | L_idle -> Format.pp_print_string fmt "Idle"
  | L_waiting_auth1 -> Format.pp_print_string fmt "WaitingAuth1"
  | L_waiting_auth3 n -> Format.fprintf fmt "WaitingAuth3(N%d)" n
  | L_in_session -> Format.pp_print_string fmt "InSession"

(* B, the other honest group member whose presence the attacks erase,
   is represented by a public data atom. *)
let b_ident = FData 500

(* The single session key of A's one session (no rejoin here — the
   weaknesses show up within one session). *)
let ka = Ka 0

let initial =
  {
    mem = M_not_connected;
    lead = L_idle;
    lead_epoch = 1;
    trace = Event.Set.empty;
    next_nonce = 0;
  }

(* A prefix-free key, built as {!Model.canon} builds one. *)
let canon q =
  let b = Buffer.create 128 in
  let int = Field.encode_int b in
  let tagged tag ints =
    Buffer.add_uint8 b tag;
    List.iter int ints
  in
  (match q.mem with
  | M_not_connected -> tagged 0 []
  | M_waiting_ack -> tagged 1 []
  | M_waiting_auth2 n -> tagged 2 [ n ]
  | M_connected { epoch; sees_b } -> tagged (if sees_b then 4 else 3) [ epoch ]
  | M_denied -> tagged 5 []);
  (match q.lead with
  | L_idle -> tagged 0 []
  | L_waiting_auth1 -> tagged 1 []
  | L_waiting_auth3 n -> tagged 2 [ n ]
  | L_in_session -> tagged 3 []);
  int q.lead_epoch;
  Event.encode_set b q.trace;
  int q.next_nonce;
  Buffer.contents b

type move =
  | A_join
  | A_recv_ack_open
  | A_recv_denied
  | A_recv_auth2
  | A_recv_new_key of int
  | A_recv_mem_removed
  | L_recv_req_open
  | L_recv_auth1
  | L_recv_auth3
  | L_rekey
  | L_recv_req_close
  | E_inject of Event.label

let pp_move fmt = function
  | A_join -> Format.pp_print_string fmt "A:req-open"
  | A_recv_ack_open -> Format.pp_print_string fmt "A:recv-ack-open"
  | A_recv_denied -> Format.pp_print_string fmt "A:recv-denied!"
  | A_recv_auth2 -> Format.pp_print_string fmt "A:recv-auth2"
  | A_recv_new_key e -> Format.fprintf fmt "A:recv-new-key(epoch=%d)" e
  | A_recv_mem_removed -> Format.pp_print_string fmt "A:recv-mem-removed!"
  | L_recv_req_open -> Format.pp_print_string fmt "L:recv-req-open"
  | L_recv_auth1 -> Format.pp_print_string fmt "L:recv-auth1"
  | L_recv_auth3 -> Format.pp_print_string fmt "L:recv-auth3"
  | L_rekey -> Format.pp_print_string fmt "L:rekey"
  | L_recv_req_close -> Format.pp_print_string fmt "L:recv-req-close!"
  | E_inject l -> Format.fprintf fmt "E:inject-%a" Event.pp_label l

let events_with trace label recipient =
  Event.Set.fold
    (fun e acc ->
      match e with
      | Event.Msg m when m.label = label && m.recipient = recipient ->
          m.content :: acc
      | Event.Msg _ | Event.Oops _ -> acc)
    trace []

let add_msg q ~label ~sender ~recipient ~content =
  {
    q with
    trace =
      Event.Set.add (Event.Msg { label; sender; recipient; content }) q.trace;
  }

(* Message contents (§2.2 formats). *)
let auth1_content n1 = FCrypt (Pa, cat [ FAgent A; FAgent L; FNonce n1 ])

let auth2_content n1 n2 epoch =
  FCrypt
    ( Pa,
      cat
        [ FAgent L; FAgent A; FNonce n1; FNonce n2; FKey ka; FKey (Kg epoch);
          FData epoch ] )

let auth3_content n2 = FCrypt (ka, cat [ FAgent A; FNonce n2 ])
let new_key_content epoch = FCrypt (ka, cat [ FKey (Kg epoch); FData epoch ])
let mem_removed_content epoch = FCrypt (Kg epoch, b_ident)
let denied_content = cat [ FAgent L; FAgent A ]
let req_close_content = cat [ FAgent A; FAgent L ]

let intruder_initial bounds =
  let base = [ FAgent A; FAgent L; FAgent Intruder; b_ident ] in
  let kgs = List.init bounds.insider_epochs (fun i -> FKey (Kg (i + 1))) in
  Field.Set.of_list (base @ kgs)

let intruder_knowledge bounds q =
  Closure.analz (Field.Set.union (intruder_initial bounds) (Event.contents q.trace))

let successors bounds q =
  let moves = ref [] in
  let add m s = moves := (m, s) :: !moves in

  (* A: request to open (once). *)
  (match q.mem with
  | M_not_connected ->
      add A_join
        (add_msg { q with mem = M_waiting_ack } ~label:Event.LReqOpen ~sender:A
           ~recipient:L ~content:(FAgent A))
  | _ -> ());

  (* A: on AckOpen -> start authentication. *)
  (match q.mem with
  | M_waiting_ack when q.next_nonce < bounds.max_nonces ->
      if events_with q.trace Event.LAckOpen A <> [] then begin
        let n1 = q.next_nonce in
        add A_recv_ack_open
          (add_msg
             { q with mem = M_waiting_auth2 n1; next_nonce = q.next_nonce + 1 }
             ~label:Event.LAuth1 ~sender:A ~recipient:L
             ~content:(auth1_content n1))
      end
  | _ -> ());

  (* A: on ConnectionDenied -> abort. Nothing about the message is
     authenticated. *)
  (match q.mem with
  | M_waiting_ack | M_waiting_auth2 _ ->
      if events_with q.trace Event.LConnDenied A <> [] then
        add A_recv_denied { q with mem = M_denied }
  | _ -> ());

  (* A: on Auth2 (matching N1) -> connected, acknowledge. *)
  (match q.mem with
  | M_waiting_auth2 n1 ->
      List.iter
        (fun content ->
          match content with
          | FCrypt
              ( Pa,
                FCat
                  [ FAgent L; FAgent A; FNonce n; FNonce n2; FKey k;
                    FKey (Kg e); FData e' ] )
            when n = n1 && k = ka && e = e' ->
              add A_recv_auth2
                (add_msg
                   { q with mem = M_connected { epoch = e; sees_b = true } }
                   ~label:Event.LAuth3 ~sender:A ~recipient:L
                   ~content:(auth3_content n2))
          | _ -> ())
        (events_with q.trace Event.LAuth2 A)
  | _ -> ());

  (* A: on NewKey — accepted with NO freshness evidence (the §2.3
     weakness): any NewKey ever sent under Ka switches the member to
     that epoch, including old ones. *)
  (match q.mem with
  | M_connected { epoch; sees_b } ->
      List.iter
        (fun content ->
          match content with
          | FCrypt (k, FCat [ FKey (Kg e); FData e' ])
            when k = ka && e = e' && e <> epoch ->
              add (A_recv_new_key e)
                { q with mem = M_connected { epoch = e; sees_b } }
          | _ -> ())
        (events_with q.trace Event.LNewKey A)
  | _ -> ());

  (* A: on MemRemoved under the CURRENT group key -> drop B from the
     view. Any holder of Kg can have produced it. *)
  (match q.mem with
  | M_connected { epoch; sees_b = true } ->
      let matches content = Field.equal content (mem_removed_content epoch) in
      if List.exists matches (events_with q.trace Event.LMemRemoved A) then
        add A_recv_mem_removed
          { q with mem = M_connected { epoch; sees_b = false } }
  | _ -> ());

  (* L: pre-auth. *)
  (match q.lead with
  | L_idle ->
      if events_with q.trace Event.LReqOpen L <> [] then
        add L_recv_req_open
          (add_msg { q with lead = L_waiting_auth1 } ~label:Event.LAckOpen
             ~sender:L ~recipient:A ~content:(FAgent L))
  | _ -> ());

  (* L: on Auth1 -> Auth2 with the current group key. *)
  (match q.lead with
  | L_waiting_auth1 when q.next_nonce < bounds.max_nonces ->
      List.iter
        (fun content ->
          match content with
          | FCrypt (Pa, FCat [ FAgent A; FAgent L; FNonce n1 ]) ->
              let n2 = q.next_nonce in
              add L_recv_auth1
                (add_msg
                   { q with lead = L_waiting_auth3 n2; next_nonce = q.next_nonce + 1 }
                   ~label:Event.LAuth2 ~sender:L ~recipient:A
                   ~content:(auth2_content n1 n2 q.lead_epoch))
          | _ -> ())
        (events_with q.trace Event.LAuth1 L)
  | _ -> ());

  (* L: on Auth3 -> session established. *)
  (match q.lead with
  | L_waiting_auth3 n2 ->
      let expected = auth3_content n2 in
      if
        List.exists (Field.equal expected) (events_with q.trace Event.LAuth3 L)
      then add L_recv_auth3 { q with lead = L_in_session }
  | _ -> ());

  (* L: rekey while in session. *)
  (match q.lead with
  | L_in_session when q.lead_epoch < bounds.max_epoch ->
      let e = q.lead_epoch + 1 in
      add L_rekey
        (add_msg { q with lead_epoch = e } ~label:Event.LNewKey ~sender:L
           ~recipient:A ~content:(new_key_content e))
  | _ -> ());

  (* L: on the PLAINTEXT close request -> tear down A's session. In
     this model the honest A never sends one, so any close is forged. *)
  (match q.lead with
  | L_in_session ->
      if
        List.exists
          (Field.equal req_close_content)
          (events_with q.trace Event.LReqClose L)
      then add L_recv_req_close { q with lead = L_idle }
  | _ -> ());

  (* Intruder: pattern-directed injections from Know(E). *)
  let know = intruder_knowledge bounds q in
  let inject ~label ~recipient content =
    if Closure.in_synth know content then begin
      let ev = Event.Msg { label; sender = Intruder; recipient; content } in
      if not (Event.Set.mem ev q.trace) then
        add (E_inject label) { q with trace = Event.Set.add ev q.trace }
    end
  in
  (match q.mem with
  | M_waiting_ack | M_waiting_auth2 _ ->
      inject ~label:Event.LConnDenied ~recipient:A denied_content
  | M_connected { epoch; sees_b = true } ->
      inject ~label:Event.LMemRemoved ~recipient:A (mem_removed_content epoch)
  | _ -> ());
  (match q.lead with
  | L_in_session -> inject ~label:Event.LReqClose ~recipient:L req_close_content
  | _ -> ());
  !moves

(* --- exploration: an {!Explore.Make} instance, uncapped so that no
   report can hold over a silently truncated graph --- *)

module E = Explore.Make (struct
  type config = bounds
  type nonrec state = state
  type nonrec move = move

  let default_config = default_bounds
  let initial = initial
  let successors = successors
  let canon = canon
end)

type result = E.result

let explore ?bounds () = E.run ?config:bounds ~max_states:max_int ()
let state_count = E.state_count

let render_path path =
  List.map
    (fun (move, q) ->
      Format.asprintf "%a  =>  mem=%a lead=%a epoch=%d" pp_move move
        pp_member_state q.mem pp_leader_state q.lead q.lead_epoch)
    path

type finding = {
  weakness : string;
  description : string;
  violated : bool;
  trace : string list;
}

let reach_finding r ~weakness ~description p =
  match E.find_state r p with
  | Some q -> { weakness; description; violated = true; trace = render_path (E.path_to r q) }
  | None -> { weakness; description; violated = false; trace = [] }

let edge_finding r ~weakness ~description p =
  match E.find_edge r p with
  | Some (q_src, move, q_dst) ->
      {
        weakness;
        description;
        violated = true;
        trace = render_path (E.path_to r q_src @ [ (move, q_dst) ]);
      }
  | None -> { weakness; description; violated = false; trace = [] }

let findings ?(bounds = default_bounds) r =
  let w1 =
    reach_finding r ~weakness:"W1"
      ~description:"member denied although the leader never sent a denial (A1)"
      (fun q -> q.mem = M_denied)
  in
  let w2 =
    reach_finding r ~weakness:"W2"
      ~description:
        "member's view drops B although the leader never removed B (A2)"
      (fun q ->
        match q.mem with
        | M_connected { sees_b = false; _ } -> true
        | _ -> false)
  in
  (* W3 is an edge property: the epoch decreases along a step. *)
  let w3 =
    edge_finding r ~weakness:"W3"
      ~description:"member's group-key epoch regressed on a replay (A3)"
      (fun q_src _move q_dst ->
        match (q_src.mem, q_dst.mem) with
        | M_connected { epoch = e; _ }, M_connected { epoch = e'; _ } -> e' < e
        | _ -> false)
  in
  let w4 =
    edge_finding r ~weakness:"W4"
      ~description:
        "leader closed the session although the member never asked (A4)"
      (fun q_src move _q_dst ->
        move = L_recv_req_close && q_src.lead = L_in_session)
  in
  let pa =
    reach_finding r ~weakness:"Pa-secrecy"
      ~description:"intruder learns the long-term key P_a (must NOT happen)"
      (fun q -> Field.Set.mem (FKey Pa) (intruder_knowledge bounds q))
  in
  [ w1; w2; w3; w4; pa ]

let as_expected f =
  if f.weakness = "Pa-secrecy" then not f.violated else f.violated
