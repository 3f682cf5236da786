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

(* Every counterexample is counted; only the first [max_violations]
   are rendered, newest first until [make_report]. *)
type failures = { mutable found : int; mutable shown : string list }

let failures () = { found = 0; shown = [] }

let fail t render =
  t.found <- t.found + 1;
  if t.found <= max_violations then t.shown <- render () :: t.shown

let make_report name checked t =
  { name; holds = t.found = 0; checked; violations = List.rev t.shown }

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

(* The checkers of one [combine] see each state in turn, so remembering
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
  let checked = ref 0 and failures = failures () in
  {
    on_state = (fun q -> f checked failures q);
    on_edge = no_edge;
    finish = (fun () -> [ make_report name !checked failures ]);
  }

let regularity_stream () =
  let checked = ref 0 and failures = failures () in
  let on_edge q move q' =
    match move with
    | Model.E_inject _ -> ()
    | Model.A_join | Model.A_recv_keydist | Model.A_recv_admin | Model.A_leave
    | Model.L_recv_init | Model.L_recv_keyack | Model.L_send_admin
    | Model.L_recv_ack | Model.L_recv_close ->
        incr checked;
        (* The contents of the edge's new events that were not already
           on the wire. *)
        let added =
          Event.Set.fold
            (fun e acc -> Field.Set.add (Event.content e) acc)
            (Event.Set.diff q'.Model.trace q.Model.trace)
            Field.Set.empty
        in
        let on_wire content =
          Event.Set.exists
            (fun e -> Field.equal (Event.content e) content)
            q.Model.trace
        in
        Field.Set.iter
          (fun content ->
            if
              Field.Set.mem (FKey Pa) (Closure.parts_of_field content)
              && not (on_wire content)
            then
              fail failures (fun () ->
                  Format.asprintf "%a sends Pa in %a" Model.pp_move move
                    Field.pp content))
          added
  in
  {
    on_state = no_state;
    on_edge;
    finish = (fun () -> [ make_report "regularity (5.1)" !checked failures ]);
  }

let long_term_key_secrecy_stream know =
  state_checker "P_a secrecy (5.1)" (fun checked failures q ->
      incr checked;
      if Field.Set.mem (FKey Pa) (know q) then
        fail failures (fun () -> describe_state q))

let long_term_key_secrecy ?config result =
  one result (long_term_key_secrecy_stream (Model.intruder_knowledge ?config))

let session_keys_mentioned q =
  (* All session-key indices allocated so far. *)
  List.init q.Model.next_key (fun k -> k)

let session_key_secrecy_stream know =
  state_checker "session-key secrecy (5.2)" (fun checked failures q ->
      let know = lazy (know q) in
      List.iter
        (fun k ->
          if Model.in_use q k then begin
            incr checked;
            if Field.Set.mem (FKey (Ka k)) (Lazy.force know) then
              fail failures (fun () ->
                  Format.asprintf "Ka%d leaked while in use: %s" k
                    (describe_state q))
          end)
        (session_keys_mentioned q))

let session_key_secrecy ?config result =
  one result (session_key_secrecy_stream (Model.intruder_knowledge ?config))

let coideal_invariant_stream () =
  state_checker "coideal invariant (5.2.5)" (fun checked failures q ->
      List.iter
        (fun k ->
          if Model.in_use q k then begin
            incr checked;
            let s = Field.Set.of_list [ FKey (Ka k); FKey Pa ] in
            if
              not
                (Event.Set.for_all
                   (fun e -> Closure.in_coideal s (Event.content e))
                   q.Model.trace)
            then
              fail failures (fun () ->
                  Format.asprintf "trace escapes C({Ka%d,Pa}): %s" k
                    (describe_state q))
          end)
        (session_keys_mentioned q))

let oops_keys_are_public_stream know =
  state_checker "oops keys public (4.1)" (fun checked failures q ->
      Event.Set.iter
        (function
          | Event.Oops (FKey (Ka k)) ->
              incr checked;
              if not (Field.Set.mem (FKey (Ka k)) (know q)) then
                fail failures (fun () ->
                    Format.asprintf "oopsed Ka%d not in Know(E): %s" k
                      (describe_state q))
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
