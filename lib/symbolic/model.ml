open Field

type mutation = No_admin_freshness | Leak_pa | No_close_auth

type config = {
  max_nonces : int;
  max_keys : int;
  max_admin : int;
  max_joins : int;
  max_data : int;
  intruder_fresh : int;
  mutations : mutation list;
}

let default_config =
  {
    max_nonces = 10;
    max_keys = 2;
    max_admin = 2;
    max_joins = 2;
    max_data = 4;
    intruder_fresh = 1;
    mutations = [];
  }

let intruder_atom_base = 1000

type user_state =
  | U_not_connected
  | U_waiting_for_key of int
  | U_connected of int * int

type leader_state =
  | L_not_connected
  | L_waiting_for_key_ack of int * int
  | L_connected of int * int
  | L_waiting_for_ack of int * int

type state = {
  usr : user_state;
  lead : leader_state;
  trace : Event.Set.t;
  snd : int list;
  rcv : int list;
  joins : int;
  accepts : int;
  next_nonce : int;
  next_key : int;
  next_data : int;
  i_nonces : int;
  i_keys : int;
}

type move =
  | A_join
  | A_recv_keydist
  | A_recv_admin
  | A_leave
  | L_recv_init
  | L_recv_keyack
  | L_send_admin
  | L_recv_ack
  | L_recv_close
  | E_inject of Event.label

let pp_move fmt = function
  | A_join -> Format.pp_print_string fmt "A:join"
  | A_recv_keydist -> Format.pp_print_string fmt "A:recv-keydist"
  | A_recv_admin -> Format.pp_print_string fmt "A:recv-admin"
  | A_leave -> Format.pp_print_string fmt "A:leave"
  | L_recv_init -> Format.pp_print_string fmt "L:recv-init"
  | L_recv_keyack -> Format.pp_print_string fmt "L:recv-keyack"
  | L_send_admin -> Format.pp_print_string fmt "L:send-admin"
  | L_recv_ack -> Format.pp_print_string fmt "L:recv-ack"
  | L_recv_close -> Format.pp_print_string fmt "L:recv-close"
  | E_inject l -> Format.fprintf fmt "E:inject-%a" Event.pp_label l

let pp_user_state fmt = function
  | U_not_connected -> Format.pp_print_string fmt "NotConnected"
  | U_waiting_for_key n -> Format.fprintf fmt "WaitingForKey(N%d)" n
  | U_connected (n, k) -> Format.fprintf fmt "Connected(N%d,Ka%d)" n k

let pp_leader_state fmt = function
  | L_not_connected -> Format.pp_print_string fmt "NotConnected"
  | L_waiting_for_key_ack (n, k) ->
      Format.fprintf fmt "WaitingForKeyAck(N%d,Ka%d)" n k
  | L_connected (n, k) -> Format.fprintf fmt "Connected(N%d,Ka%d)" n k
  | L_waiting_for_ack (n, k) -> Format.fprintf fmt "WaitingForAck(N%d,Ka%d)" n k

let initial =
  {
    usr = U_not_connected;
    lead = L_not_connected;
    trace = Event.Set.empty;
    snd = [];
    rcv = [];
    joins = 0;
    accepts = 0;
    next_nonce = 0;
    next_key = 0;
    next_data = 0;
    i_nonces = 0;
    i_keys = 0;
  }

let encode_pair b tag n k =
  Buffer.add_uint8 b tag;
  encode_int b n;
  encode_int b k

let encode_list b l =
  encode_int b (List.length l);
  List.iter (fun n -> encode_int b n) l

(* The state's identity as a prefix-free byte string: a tag fixes how
   many ints follow it and every list is written after its length, so
   equal keys mean equal states. The trace is written as its sorted
   events, whatever the shape of its set tree. A fresh buffer per
   call: [canon] runs on the pool's domains. *)
let canon q =
  let b = Buffer.create 256 in
  (match q.usr with
  | U_not_connected -> Buffer.add_uint8 b 0
  | U_waiting_for_key n ->
      Buffer.add_uint8 b 1;
      encode_int b n
  | U_connected (n, k) -> encode_pair b 2 n k);
  (match q.lead with
  | L_not_connected -> Buffer.add_uint8 b 0
  | L_waiting_for_key_ack (n, k) -> encode_pair b 1 n k
  | L_connected (n, k) -> encode_pair b 2 n k
  | L_waiting_for_ack (n, k) -> encode_pair b 3 n k);
  Event.encode_set b q.trace;
  encode_list b q.snd;
  encode_list b q.rcv;
  encode_int b q.joins;
  encode_int b q.accepts;
  encode_int b q.next_nonce;
  encode_int b q.next_key;
  encode_int b q.next_data;
  encode_int b q.i_nonces;
  encode_int b q.i_keys;
  Buffer.contents b

let intruder_initial ?(config = default_config) q =
  let base =
    if List.mem Leak_pa config.mutations then
      [ FAgent A; FAgent L; FAgent Intruder; FKey Pa ]
    else [ FAgent A; FAgent L; FAgent Intruder ]
  in
  let atoms = ref (Field.Set.of_list base) in
  for i = 0 to q.i_nonces - 1 do
    atoms := Field.Set.add (FNonce (intruder_atom_base + i)) !atoms
  done;
  for i = 0 to q.i_keys - 1 do
    atoms := Field.Set.add (FKey (Ka (intruder_atom_base + i))) !atoms
  done;
  !atoms

let intruder_knowledge ?config q =
  Closure.analz
    (Event.Set.fold
       (fun e acc -> Field.Set.add (Event.content e) acc)
       q.trace (intruder_initial ?config q))

let in_use q k =
  match q.lead with
  | L_waiting_for_key_ack (_, k') | L_connected (_, k') | L_waiting_for_ack (_, k')
    ->
      k = k'
  | L_not_connected -> false

(* Contents of trace events with a given label and recipient; the
   apparent sender is deliberately ignored (it is unauthenticated). *)
let events_with trace label recipient =
  Event.Set.fold
    (fun e acc ->
      match e with
      | Event.Msg m when m.label = label && m.recipient = recipient ->
          m.content :: acc
      | Event.Msg _ | Event.Oops _ -> acc)
    trace []

let add_msg q ~label ~sender ~recipient ~content =
  { q with trace = Event.Set.add (Event.Msg { label; sender; recipient; content }) q.trace }

let add_oops q f = { q with trace = Event.Set.add (Event.Oops f) q.trace }

(* --- Message content builders (the §3.2 message formats) --- *)

let auth_init_content n1 = FCrypt (Pa, cat [ FAgent A; FAgent L; FNonce n1 ])

let key_dist_content n1 n2 k =
  FCrypt (Pa, cat [ FAgent L; FAgent A; FNonce n1; FNonce n2; FKey (Ka k) ])

(* §5.3 writes the key acknowledgment as {A, L, N, N'_a}_K — the same
   shape as the admin Ack; the key ack is in effect the session's
   zeroth acknowledgment. *)
let key_ack_content k n2 n3 =
  FCrypt (Ka k, cat [ FAgent A; FAgent L; FNonce n2; FNonce n3 ])

let admin_content k na nl d =
  FCrypt (Ka k, cat [ FAgent L; FAgent A; FNonce na; FNonce nl; FData d ])

let ack_content k nl n' = FCrypt (Ka k, cat [ FAgent A; FAgent L; FNonce nl; FNonce n' ])

let close_content ?(config = default_config) k =
  if List.mem No_close_auth config.mutations then cat [ FAgent A; FAgent L ]
  else FCrypt (Ka k, cat [ FAgent A; FAgent L ])

(* --- Pattern matchers for honest receive transitions --- *)

let match_key_dist n1 = function
  | FCrypt (Pa, FCat [ FAgent L; FAgent A; FNonce n; FNonce n2; FKey (Ka k) ])
    when n = n1 ->
      Some (n2, k)
  | _ -> None

let match_admin ?(config = default_config) ka na = function
  | FCrypt (Ka k, FCat [ FAgent L; FAgent A; FNonce n; FNonce nl; FData d ])
    when k = ka
         && (n = na || List.mem No_admin_freshness config.mutations) ->
      Some (nl, d)
  | _ -> None

let match_auth_init = function
  | FCrypt (Pa, FCat [ FAgent A; FAgent L; FNonce n1 ]) -> Some n1
  | _ -> None

let match_key_ack ka nl = function
  | FCrypt (Ka k, FCat [ FAgent A; FAgent L; FNonce n; FNonce n3 ])
    when k = ka && n = nl ->
      Some n3
  | _ -> None

let match_ack ka nl = function
  | FCrypt (Ka k, FCat [ FAgent A; FAgent L; FNonce n; FNonce n' ])
    when k = ka && n = nl ->
      Some n'
  | _ -> None

let match_close ?(config = default_config) ka content =
  if List.mem No_close_auth config.mutations then
    match content with FCat [ FAgent A; FAgent L ] -> Some () | _ -> None
  else
    match content with
    | FCrypt (Ka k, FCat [ FAgent A; FAgent L ]) when k = ka -> Some ()
    | _ -> None

(* --- Transition relation --- *)

let successors cfg q =
  let moves = ref [] in
  let add m s = moves := (m, s) :: !moves in

  (* A: join. *)
  (match q.usr with
  | U_not_connected when q.joins < cfg.max_joins && q.next_nonce < cfg.max_nonces
    ->
      let n1 = q.next_nonce in
      let q' =
        add_msg
          {
            q with
            usr = U_waiting_for_key n1;
            joins = q.joins + 1;
            next_nonce = q.next_nonce + 1;
          }
          ~label:Event.AuthInitReq ~sender:A ~recipient:L
          ~content:(auth_init_content n1)
      in
      add A_join q'
  | U_not_connected | U_waiting_for_key _ | U_connected _ -> ());

  (* A: receive AuthKeyDist. *)
  (match q.usr with
  | U_waiting_for_key n1 when q.next_nonce < cfg.max_nonces ->
      List.iter
        (fun content ->
          match match_key_dist n1 content with
          | Some (n2, k) ->
              let n3 = q.next_nonce in
              let q' =
                add_msg
                  {
                    q with
                    usr = U_connected (n3, k);
                    next_nonce = q.next_nonce + 1;
                  }
                  ~label:Event.AuthAckKey ~sender:A ~recipient:L
                  ~content:(key_ack_content k n2 n3)
              in
              add A_recv_keydist q'
          | None -> ())
        (events_with q.trace Event.AuthKeyDist A)
  | U_not_connected | U_waiting_for_key _ | U_connected _ -> ());

  (* A: receive AdminMsg. *)
  (match q.usr with
  | U_connected (na, ka) when q.next_nonce < cfg.max_nonces ->
      List.iter
        (fun content ->
          match match_admin ~config:cfg ka na content with
          | Some (nl, d) ->
              let n'' = q.next_nonce in
              let q' =
                add_msg
                  {
                    q with
                    usr = U_connected (n'', ka);
                    rcv = q.rcv @ [ d ];
                    next_nonce = q.next_nonce + 1;
                  }
                  ~label:Event.Ack ~sender:A ~recipient:L
                  ~content:(ack_content ka nl n'')
              in
              add A_recv_admin q'
          | None -> ())
        (events_with q.trace Event.AdminMsg A)
  | U_not_connected | U_waiting_for_key _ | U_connected _ -> ());

  (* A: leave. *)
  (match q.usr with
  | U_connected (_, ka) ->
      let q' =
        add_msg
          { q with usr = U_not_connected; rcv = [] }
          ~label:Event.ReqClose ~sender:A ~recipient:L
          ~content:(close_content ~config:cfg ka)
      in
      add A_leave q'
  | U_not_connected | U_waiting_for_key _ -> ());

  (* L: receive AuthInitReq (from NotConnected, per Figure 3). *)
  (match q.lead with
  | L_not_connected
    when q.next_key < cfg.max_keys && q.next_nonce < cfg.max_nonces ->
      List.iter
        (fun content ->
          match match_auth_init content with
          | Some n1 ->
              let ka = q.next_key and n2 = q.next_nonce in
              let q' =
                add_msg
                  {
                    q with
                    lead = L_waiting_for_key_ack (n2, ka);
                    next_key = q.next_key + 1;
                    next_nonce = q.next_nonce + 1;
                  }
                  ~label:Event.AuthKeyDist ~sender:L ~recipient:A
                  ~content:(key_dist_content n1 n2 ka)
              in
              add L_recv_init q'
          | None -> ())
        (events_with q.trace Event.AuthInitReq L)
  | L_not_connected | L_waiting_for_key_ack _ | L_connected _
  | L_waiting_for_ack _ ->
      ());

  (* L: receive AuthAckKey. *)
  (match q.lead with
  | L_waiting_for_key_ack (nl, ka) ->
      List.iter
        (fun content ->
          match match_key_ack ka nl content with
          | Some n3 ->
              add L_recv_keyack
                { q with lead = L_connected (n3, ka); accepts = q.accepts + 1 }
          | None -> ())
        (events_with q.trace Event.AuthAckKey L)
  | L_not_connected | L_connected _ | L_waiting_for_ack _ -> ());

  (* L: send an admin message. *)
  (match q.lead with
  | L_connected (na, ka)
    when List.length q.snd < cfg.max_admin
         && q.next_data < cfg.max_data
         && q.next_nonce < cfg.max_nonces ->
      let nl = q.next_nonce and d = q.next_data in
      let q' =
        add_msg
          {
            q with
            lead = L_waiting_for_ack (nl, ka);
            snd = q.snd @ [ d ];
            next_nonce = q.next_nonce + 1;
            next_data = q.next_data + 1;
          }
          ~label:Event.AdminMsg ~sender:L ~recipient:A
          ~content:(admin_content ka na nl d)
      in
      add L_send_admin q'
  | L_not_connected | L_waiting_for_key_ack _ | L_connected _
  | L_waiting_for_ack _ ->
      ());

  (* L: receive Ack. *)
  (match q.lead with
  | L_waiting_for_ack (nl, ka) ->
      List.iter
        (fun content ->
          match match_ack ka nl content with
          | Some n' -> add L_recv_ack { q with lead = L_connected (n', ka) }
          | None -> ())
        (events_with q.trace Event.Ack L)
  | L_not_connected | L_waiting_for_key_ack _ | L_connected _ -> ());

  (* L: receive ReqClose (from any in-session state) + Oops(Ka). *)
  (match q.lead with
  | L_waiting_for_key_ack (_, ka) | L_connected (_, ka) | L_waiting_for_ack (_, ka)
    ->
      let closes = events_with q.trace Event.ReqClose L in
      if List.exists (fun c -> match_close ~config:cfg ka c <> None) closes then
        add L_recv_close
          (add_oops { q with lead = L_not_connected; snd = [] } (FKey (Ka ka)))
  | L_not_connected -> ());

  (* Intruder: pattern-directed injections. Build every content some
     honest automaton would accept right now, keep those in
     Gen(E, q) = Synth(Know(E,q) ∪ fresh intruder atoms), and inject
     the ones not already in the trace. *)
  let know = intruder_knowledge ~config:cfg q in
  let fresh_nonce =
    if q.i_nonces < cfg.intruder_fresh then Some (intruder_atom_base + q.i_nonces)
    else None
  in
  let know_plus =
    match fresh_nonce with
    | Some n -> Field.Set.add (FNonce n) know
    | None -> know
  in
  let known_nonces =
    Field.Set.fold
      (fun f acc -> match f with FNonce n -> n :: acc | _ -> acc)
      know_plus []
  in
  let inject ~label ~recipient content =
    if Closure.in_synth know_plus content then begin
      let ev =
        Event.Msg { label; sender = Intruder; recipient; content }
      in
      if not (Event.Set.mem ev q.trace) then begin
        let uses_fresh =
          match fresh_nonce with
          | Some n -> Field.Set.mem (FNonce n) (Closure.parts_of_field content)
          | None -> false
        in
        let q' = { q with trace = Event.Set.add ev q.trace } in
        let q' = if uses_fresh then { q' with i_nonces = q'.i_nonces + 1 } else q' in
        add (E_inject label) q'
      end
    end
  in
  (* Toward A. *)
  (match q.usr with
  | U_waiting_for_key n1 ->
      (* AuthKeyDist candidates: the intruder would need Pa, so only a
         full replay could work — enumerate known crypt fields that
         match. *)
      Field.Set.iter
        (fun f ->
          match match_key_dist n1 f with
          | Some _ -> inject ~label:Event.AuthKeyDist ~recipient:A f
          | None -> ())
        know_plus;
      (* Constructive attempts with every known nonce/key (these pass
         in_synth only if Pa leaked — which the invariant says never
         happens; the attempt documents the check). *)
      List.iter
        (fun n2 ->
          for k = 0 to q.next_key - 1 do
            inject ~label:Event.AuthKeyDist ~recipient:A (key_dist_content n1 n2 k)
          done)
        known_nonces
  | U_connected (na, ka) ->
      List.iter
        (fun nl ->
          for d = 0 to cfg.max_data - 1 do
            inject ~label:Event.AdminMsg ~recipient:A (admin_content ka na nl d)
          done)
        known_nonces;
      Field.Set.iter
        (fun f ->
          match match_admin ~config:cfg ka na f with
          | Some _ -> inject ~label:Event.AdminMsg ~recipient:A f
          | None -> ())
        know_plus
  | U_not_connected -> ());
  (* Toward L. *)
  (match q.lead with
  | L_not_connected ->
      List.iter
        (fun n1 -> inject ~label:Event.AuthInitReq ~recipient:L (auth_init_content n1))
        known_nonces;
      Field.Set.iter
        (fun f ->
          match match_auth_init f with
          | Some _ -> inject ~label:Event.AuthInitReq ~recipient:L f
          | None -> ())
        know_plus
  | L_waiting_for_key_ack (nl, ka) ->
      List.iter
        (fun n3 -> inject ~label:Event.AuthAckKey ~recipient:L (key_ack_content ka nl n3))
        known_nonces;
      inject ~label:Event.ReqClose ~recipient:L (close_content ~config:cfg ka)
  | L_connected (_, ka) -> inject ~label:Event.ReqClose ~recipient:L (close_content ~config:cfg ka)
  | L_waiting_for_ack (nl, ka) ->
      List.iter
        (fun n' -> inject ~label:Event.Ack ~recipient:L (ack_content ka nl n'))
        known_nonces;
      inject ~label:Event.ReqClose ~recipient:L (close_content ~config:cfg ka));
  !moves
