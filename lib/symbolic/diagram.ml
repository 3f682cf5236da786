open Field

type box = Q1 | Q2 | Q3 | Q4 | Q5 | Q6 | Q7 | Q8 | Q9 | Q10 | Q12

let box_name = function
  | Q1 -> "Q1"
  | Q2 -> "Q2"
  | Q3 -> "Q3"
  | Q4 -> "Q4"
  | Q5 -> "Q5"
  | Q6 -> "Q6"
  | Q7 -> "Q7"
  | Q8 -> "Q8"
  | Q9 -> "Q9"
  | Q10 -> "Q10"
  | Q12 -> "Q12"

let all_boxes = [ Q1; Q2; Q3; Q4; Q5; Q6; Q7; Q8; Q9; Q10; Q12 ]

let classify q =
  match (q.Model.usr, q.Model.lead) with
  | Model.U_not_connected, Model.L_not_connected -> Some Q1
  | Model.U_waiting_for_key _, Model.L_not_connected -> Some Q2
  | Model.U_waiting_for_key _, Model.L_waiting_for_key_ack _ -> Some Q3
  | Model.U_connected _, Model.L_waiting_for_key_ack _ -> Some Q4
  | Model.U_connected _, Model.L_connected _ -> Some Q5
  | Model.U_connected _, Model.L_waiting_for_ack _ -> Some Q6
  | Model.U_not_connected, Model.L_connected _ -> Some Q7
  | Model.U_not_connected, Model.L_waiting_for_ack _ -> Some Q8
  | Model.U_waiting_for_key _, Model.L_connected _ -> Some Q9
  | Model.U_waiting_for_key _, Model.L_waiting_for_ack _ -> Some Q10
  | Model.U_not_connected, Model.L_waiting_for_key_ack _ -> Some Q12
  | Model.U_connected _, Model.L_not_connected -> None

let successors_of = function
  | Q1 -> [ Q2; Q12 ]
  | Q2 -> [ Q3 ]
  | Q3 -> [ Q4; Q9; Q2 ]
  | Q4 -> [ Q5; Q12 ]
  | Q5 -> [ Q6; Q7 ]
  | Q6 -> [ Q5; Q8 ]
  | Q7 -> [ Q9; Q8; Q1 ]
  | Q8 -> [ Q10; Q7; Q1 ]
  | Q9 -> [ Q10; Q2 ]
  | Q10 -> [ Q9; Q2 ]
  | Q12 -> [ Q3; Q7; Q1 ]

(* --- Trace-condition helpers --- *)

(* The patterns whose (non-)occurrence the predicates constrain. *)

let keydist_citing parts na =
  Field.Set.fold
    (fun f acc ->
      match f with
      | FCrypt (Pa, FCat [ FAgent L; FAgent A; FNonce n; FNonce n'; FKey (Ka k) ])
        when n = na ->
          (n', k) :: acc
      | _ -> acc)
    parts []

let acks_citing parts ka nl =
  Field.Set.fold
    (fun f acc ->
      match f with
      | FCrypt (Ka k, FCat [ FAgent A; FAgent L; FNonce n; FNonce n' ])
        when k = ka && n = nl ->
          n' :: acc
      | _ -> acc)
    parts []

let admin_citing parts ka na =
  Field.Set.fold
    (fun f acc ->
      match f with
      | FCrypt (Ka k, FCat [ FAgent L; FAgent A; FNonce n; FNonce n'; FData d ])
        when k = ka && n = na ->
          (n', d) :: acc
      | _ -> acc)
    parts []

let close_in parts ka = Field.Set.mem (FCrypt (Ka ka, FCat [ FAgent A; FAgent L ])) parts

let lead_key q =
  match q.Model.lead with
  | Model.L_waiting_for_key_ack (_, k)
  | Model.L_connected (_, k)
  | Model.L_waiting_for_ack (_, k) ->
      Some k
  | Model.L_not_connected -> None

let closing q parts =
  match lead_key q with Some k -> close_in parts k | None -> false

(* --- Box invariants --- *)

let box_invariant_in parts q box =
  match (box, q.Model.usr, q.Model.lead) with
  | Q1, Model.U_not_connected, Model.L_not_connected -> true
  | Q2, Model.U_waiting_for_key na, Model.L_not_connected ->
      (* Paper Q2: no key-distribution reply citing Na exists yet. *)
      keydist_citing parts na = []
  | Q3, Model.U_waiting_for_key na, Model.L_waiting_for_key_ack (nl, ka) ->
      if closing q parts then
        (* Reconstructed closing variant: the leader's handshake is a
           leftover of a finished session; A's fresh request is still
           unanswered. *)
        keydist_citing parts na = []
      else
        (* Paper Q3: any key-dist citing Na carries exactly (Nl, Ka);
           no key ack citing Nl; no close under Ka. *)
        List.for_all (fun (n, k) -> n = nl && k = ka) (keydist_citing parts na)
        && acks_citing parts ka nl = []
  | Q4, Model.U_connected (na, ka_u), Model.L_waiting_for_key_ack (nl, ka) ->
      (* Paper Q4: A and L agree on Ka; the only ack citing Nl is A's,
         carrying Na; no admin message citing Na yet; no close. *)
      ka_u = ka
      && List.for_all (fun n -> n = na) (acks_citing parts ka nl)
      && admin_citing parts ka na = []
      && not (close_in parts ka)
  | Q5, Model.U_connected (na, ka_u), Model.L_connected (nl, ka) ->
      (* Agreement, and the session is not closing. *)
      ka_u = ka && na = nl && not (close_in parts ka)
  | Q6, Model.U_connected (na, ka_u), Model.L_waiting_for_ack (nl, ka) ->
      (* Either the outstanding AdminMsg still awaits A (it cites A's
         current nonce Na), or A has processed it (A's ack citing Nl
         carries Na). *)
      ka_u = ka
      && (not (close_in parts ka))
      && (List.exists (fun (n', _) -> n' = nl) (admin_citing parts ka na)
         || List.mem na (acks_citing parts ka nl))
  | Q7, Model.U_not_connected, Model.L_connected (_, ka) -> close_in parts ka
  | Q8, Model.U_not_connected, Model.L_waiting_for_ack (_, ka) ->
      close_in parts ka
  | Q9, Model.U_waiting_for_key na, Model.L_connected (_, ka) ->
      close_in parts ka && keydist_citing parts na = []
  | Q10, Model.U_waiting_for_key na, Model.L_waiting_for_ack (_, ka) ->
      close_in parts ka && keydist_citing parts na = []
  | Q12, Model.U_not_connected, Model.L_waiting_for_key_ack (nl, ka) ->
      if closing q parts then
        (* Closing variant: A connected and left while the leader still
           awaits the key ack; her ack is necessarily in the trace. *)
        acks_citing parts ka nl <> []
      else
        (* Paper Q12: no key ack citing Nl exists. *)
        acks_citing parts ka nl = []
  | _ -> false

let box_invariant q box = box_invariant_in (Model.trace_parts q) q box

(* --- Checks --- *)

let describe q =
  Format.asprintf "usr=%a lead=%a" Model.pp_user_state q.Model.usr
    Model.pp_leader_state q.Model.lead

let no_edge (_ : Model.state) (_ : Model.move) (_ : Model.state) = ()

(* [parts] gives each state's [Parts(trace)]; {!stream} shares one
   per state between coverage and the intruder obligations. *)
let coverage_stream parts =
  let checked = ref 0 and violations = ref [] in
  {
    Invariants.on_state =
      (fun q ->
        incr checked;
        match classify q with
        | None ->
            violations :=
              ("unreachable shape reached: " ^ describe q) :: !violations
        | Some box ->
            if not (box_invariant_in (parts q) q box) then
              violations :=
                Format.asprintf "%s invariant fails at %s" (box_name box)
                  (describe q)
                :: !violations);
    on_edge = no_edge;
    finish =
      (fun () ->
        [
          Invariants.make_report "diagram coverage (5.3)" !checked !violations;
        ]);
  }

let edges_stream () =
  let checked = ref 0 and violations = ref [] in
  {
    Invariants.on_state = (fun _ -> ());
    on_edge =
      (fun q move q' ->
        incr checked;
        match (classify q, classify q') with
        | Some b, Some b' ->
            let ok =
              match move with
              | Model.E_inject _ -> b = b'
              | _ -> b = b' || List.mem b' (successors_of b)
            in
            if not ok then
              violations :=
                Format.asprintf "%s --%a--> %s not in diagram" (box_name b)
                  Model.pp_move move (box_name b')
                :: !violations
        | _ -> violations := "edge touches unclassifiable state" :: !violations);
    finish =
      (fun () ->
        [ Invariants.make_report "diagram edges (5.3)" !checked !violations ]);
  }

(* The paper's induction step for agents other than A and L: they can
   only replay protected fields, never mint new ones. For each state
   and each in-use session key, no ack/admin/close field under that
   key, other than those already in the trace, is synthesizable from
   the intruder's knowledge. *)
let intruder_obligations_stream ?(config = Model.default_config) parts =
  let checked = ref 0 and violations = ref [] in
  let nonce_pool =
    List.init config.Model.max_nonces (fun i -> i)
    @ List.init config.Model.intruder_fresh (fun i -> Model.intruder_atom_base + i)
  in
  {
    Invariants.on_state =
      (fun q ->
        match lead_key q with
        | None -> ()
        | Some ka ->
            let parts = parts q in
            let know =
              Field.Set.add
                (FNonce Model.intruder_atom_base)
                (Model.intruder_knowledge ~config q)
            in
            let check_field f =
              incr checked;
              (* Synthesis fails for nearly every candidate, so it is
                 tested first. *)
              if Closure.in_synth know f && not (Field.Set.mem f parts) then
                violations :=
                  Format.asprintf "intruder can mint %a at %s" Field.pp f
                    (describe q)
                  :: !violations
            in
            check_field (FCrypt (Ka ka, FCat [ FAgent A; FAgent L ]));
            List.iter
              (fun n ->
                List.iter
                  (fun n' ->
                    check_field
                      (FCrypt
                         ( Ka ka,
                           FCat [ FAgent A; FAgent L; FNonce n; FNonce n' ] )))
                  nonce_pool)
              nonce_pool);
    on_edge = no_edge;
    finish =
      (fun () ->
        [
          Invariants.make_report "intruder cannot mint (5.3)" !checked
            !violations;
        ]);
  }

let visit_counts result =
  let counts = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace counts (box_name b) 0) all_boxes;
  Explore.iter_states result (fun q ->
      match classify q with
      | Some b ->
          let name = box_name b in
          Hashtbl.replace counts name (Hashtbl.find counts name + 1)
      | None -> ());
  List.map (fun b -> (box_name b, Hashtbl.find counts (box_name b))) all_boxes

let stream ?config () =
  let parts = Invariants.per_state Model.trace_parts in
  Invariants.combine
    [
      coverage_stream parts;
      edges_stream ();
      intruder_obligations_stream ?config parts;
    ]

let all ?config result = Invariants.check_result result (stream ?config ())
