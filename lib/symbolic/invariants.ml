open Field

type report = Explore.report = {
  name : string;
  holds : bool;
  checked : int;
  violations : string list;
}

type checker = {
  on_state : Model.state -> unit;
  on_edge : Model.state -> Model.move -> Model.state -> unit;
  finish : unit -> report list;
}

let pp_report fmt { name; holds; checked; violations } =
  Format.fprintf fmt "%-28s %s (%d checked)" name
    (if holds then "HOLDS" else "VIOLATED")
    checked;
  List.iter (fun v -> Format.fprintf fmt "@.    counterexample: %s" v) violations

let max_violations = 5

let make_report name checked violations =
  {
    name;
    holds = violations = [];
    checked;
    violations =
      List.filteri (fun i _ -> i < max_violations) (List.rev violations);
  }

let describe_state q =
  Format.asprintf "usr=%a lead=%a |trace|=%d" Model.pp_user_state q.Model.usr
    Model.pp_leader_state q.Model.lead
    (Event.Set.cardinal q.Model.trace)

let no_state (_ : Model.state) = ()
let no_edge (_ : Model.state) (_ : Model.move) (_ : Model.state) = ()

let combine checkers =
  {
    on_state = (fun q -> List.iter (fun c -> c.on_state q) checkers);
    on_edge = (fun q m q' -> List.iter (fun c -> c.on_edge q m q') checkers);
    finish = (fun () -> List.concat_map (fun c -> c.finish ()) checkers);
  }

let check_result result c =
  Explore.iter_states result c.on_state;
  Explore.iter_edges result c.on_edge;
  c.finish ()

let one result c =
  match check_result result c with [ r ] -> r | _ -> assert false

(* The checkers of one stream see each state in turn, so remembering
   the last state is enough to compute [f] once per state for all of
   them. States are immutable, so physical identity is a sound key. *)
let per_state f =
  let last = ref None in
  fun q ->
    match !last with
    | Some (q', v) when q' == q -> v
    | Some _ | None ->
        let v = f q in
        last := Some (q, v);
        v

(* A checker built from a per-state predicate-style body. *)
let state_checker name f =
  let checked = ref 0 and violations = ref [] in
  {
    on_state = (fun q -> f checked violations q);
    on_edge = no_edge;
    finish = (fun () -> [ make_report name !checked !violations ]);
  }

let regularity_stream () =
  let checked = ref 0 and violations = ref [] in
  let on_edge q move q' =
    match move with
    | Model.E_inject _ -> ()
    | Model.A_join | Model.A_recv_keydist | Model.A_recv_admin | Model.A_leave
    | Model.L_recv_init | Model.L_recv_keyack | Model.L_send_admin
    | Model.L_recv_ack | Model.L_recv_close ->
        incr checked;
        let added =
          Field.Set.diff
            (Event.contents q'.Model.trace)
            (Event.contents q.Model.trace)
        in
        Field.Set.iter
          (fun content ->
            if Field.Set.mem (FKey Pa) (Closure.parts_of_field content) then
              violations :=
                Format.asprintf "%a sends Pa in %a" Model.pp_move move Field.pp
                  content
                :: !violations)
          added
  in
  {
    on_state = no_state;
    on_edge;
    finish = (fun () -> [ make_report "regularity (5.1)" !checked !violations ]);
  }

let long_term_key_secrecy_stream know =
  state_checker "P_a secrecy (5.1)" (fun checked violations q ->
      incr checked;
      if Field.Set.mem (FKey Pa) (know q) then
        violations := describe_state q :: !violations)

let long_term_key_secrecy ?config result =
  one result (long_term_key_secrecy_stream (Model.intruder_knowledge ?config))

let session_keys_mentioned q =
  (* All session-key indices allocated so far. *)
  List.init q.Model.next_key (fun k -> k)

let session_key_secrecy_stream know =
  state_checker "session-key secrecy (5.2)" (fun checked violations q ->
      let know = lazy (know q) in
      List.iter
        (fun k ->
          if Model.in_use q k then begin
            incr checked;
            if Field.Set.mem (FKey (Ka k)) (Lazy.force know) then
              violations :=
                Format.asprintf "Ka%d leaked while in use: %s" k
                  (describe_state q)
                :: !violations
          end)
        (session_keys_mentioned q))

let session_key_secrecy ?config result =
  one result (session_key_secrecy_stream (Model.intruder_knowledge ?config))

let coideal_invariant_stream () =
  state_checker "coideal invariant (5.2.5)" (fun checked violations q ->
      List.iter
        (fun k ->
          if Model.in_use q k then begin
            incr checked;
            let s = Field.Set.of_list [ FKey (Ka k); FKey Pa ] in
            let contents = Event.contents q.Model.trace in
            if not (Closure.set_in_coideal s contents) then
              violations :=
                Format.asprintf "trace escapes C({Ka%d,Pa}): %s" k
                  (describe_state q)
                :: !violations
          end)
        (session_keys_mentioned q))

let oops_keys_are_public_stream know =
  state_checker "oops keys public (4.1)" (fun checked violations q ->
      Event.Set.iter
        (function
          | Event.Oops (FKey (Ka k)) ->
              incr checked;
              if not (Field.Set.mem (FKey (Ka k)) (know q)) then
                violations :=
                  Format.asprintf "oopsed Ka%d not in Know(E): %s" k
                    (describe_state q)
                  :: !violations
          | Event.Oops _ | Event.Msg _ -> ())
        q.Model.trace)

let stream ?config () =
  let know = per_state (Model.intruder_knowledge ?config) in
  combine
    [
      regularity_stream ();
      long_term_key_secrecy_stream know;
      session_key_secrecy_stream know;
      coideal_invariant_stream ();
      oops_keys_are_public_stream know;
    ]

let all ?config result = check_result result (stream ?config ())
