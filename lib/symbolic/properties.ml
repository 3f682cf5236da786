let describe_state q =
  Format.asprintf "usr=%a lead=%a snd=[%s] rcv=[%s]" Model.pp_user_state
    q.Model.usr Model.pp_leader_state q.Model.lead
    (String.concat ";" (List.map string_of_int q.Model.snd))
    (String.concat ";" (List.map string_of_int q.Model.rcv))

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'

(* A single-report streaming checker over a per-state predicate. *)
let state_checker name check =
  let checked = ref 0 and failures = Invariants.failures () in
  {
    Invariants.on_state =
      (fun q ->
        incr checked;
        if not (check q) then
          Invariants.fail failures (fun () -> describe_state q));
    on_edge = (fun _ _ _ -> ());
    finish = (fun () -> [ Invariants.make_report name !checked failures ]);
  }

let prefix_stream () =
  state_checker "rcv_A prefix of snd_A (5.4)" (fun q ->
      is_prefix q.Model.rcv q.Model.snd)

let prefix_property result = Invariants.one result (prefix_stream ())

let proper_authentication_stream () =
  state_checker "proper authentication (5.4)" (fun q ->
      q.Model.accepts <= q.Model.joins)

let proper_authentication result =
  Invariants.one result (proper_authentication_stream ())

let agreement_stream () =
  state_checker "key/nonce agreement (5.4)" (fun q ->
      match (q.Model.usr, q.Model.lead) with
      | Model.U_connected (n, k), Model.L_connected (n', k') ->
          n = n' && k = k'
      | _ -> true)

let agreement result = Invariants.one result (agreement_stream ())

let possession_stream () =
  state_checker "A connected => InUse (5.4)" (fun q ->
      match q.Model.usr with
      | Model.U_connected (_, k) -> Model.in_use q k
      | Model.U_not_connected | Model.U_waiting_for_key _ -> true)

let possession result = Invariants.one result (possession_stream ())

let no_duplicates_stream () =
  state_checker "no duplicate admin accepted (5.4)" (fun q ->
      List.length (List.sort_uniq compare q.Model.rcv)
      = List.length q.Model.rcv)

let no_duplicates result = Invariants.one result (no_duplicates_stream ())

let stream () =
  Invariants.combine
    [
      prefix_stream ();
      proper_authentication_stream ();
      agreement_stream ();
      possession_stream ();
      no_duplicates_stream ();
    ]

let all result = Invariants.check_result result (stream ())
