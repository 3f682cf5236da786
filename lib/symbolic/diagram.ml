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

(* The patterns whose (non-)occurrence the predicates constrain. Each
   is an encryption, so [parts] needs only the encrypted fields of
   Parts(trace) ({!crypt_parts}). *)

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

(* The [FCrypt] fields of Parts(trace(q)), folded from the events. A
   field already in the set brings its body's encryptions with it. *)
let crypt_parts q =
  let rec add acc f =
    match f with
    | FCrypt (_, body) ->
        let acc' = Field.Set.add f acc in
        if acc' == acc then acc else add acc' body
    | FCat fs -> List.fold_left add acc fs
    | FAgent _ | FNonce _ | FKey _ | FData _ -> acc
  in
  Event.Set.fold
    (fun e acc -> add acc (Event.content e))
    q.Model.trace Field.Set.empty

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

let box_invariant q box = box_invariant_in (crypt_parts q) q box

(* --- Checks --- *)

let describe q =
  Format.asprintf "usr=%a lead=%a" Model.pp_user_state q.Model.usr
    Model.pp_leader_state q.Model.lead

let no_edge (_ : Model.state) (_ : Model.move) (_ : Model.state) = ()

(* [parts] gives each state's {!crypt_parts}; {!stream} shares one
   per state between coverage and the intruder obligations. *)
let coverage_stream parts =
  let checked = ref 0 and failures = Invariants.failures () in
  {
    Invariants.on_state =
      (fun q ->
        incr checked;
        match classify q with
        | None ->
            Invariants.fail failures (fun () ->
                "unreachable shape reached: " ^ describe q)
        | Some box ->
            if not (box_invariant_in (parts q) q box) then
              Invariants.fail failures (fun () ->
                  Format.asprintf "%s invariant fails at %s" (box_name box)
                    (describe q)));
    on_edge = no_edge;
    finish =
      (fun () ->
        [
          Invariants.make_report "diagram coverage (5.3)" !checked failures;
        ]);
  }

let edges_stream () =
  let checked = ref 0 and failures = Invariants.failures () in
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
              Invariants.fail failures (fun () ->
                  Format.asprintf "%s --%a--> %s not in diagram" (box_name b)
                    Model.pp_move move (box_name b'))
        | _ ->
            Invariants.fail failures (fun () ->
                "edge touches unclassifiable state"));
    finish =
      (fun () ->
        [ Invariants.make_report "diagram edges (5.3)" !checked failures ]);
  }

(* The paper's induction step for agents other than A and L: they can
   only replay protected fields, never mint new ones. Its candidates
   at a state whose leader holds [ka] are the close [{A,L}_ka] and,
   for every pair of pool nonces, the ack shape [{A,L,N,N'}_ka], in
   that order; each synthesizable one must already be a part of the
   trace. *)

let nonce_pool config =
  List.init config.Model.max_nonces (fun i -> i)
  @ List.init config.Model.intruder_fresh (fun i -> Model.intruder_atom_base + i)

(* [Closure.in_synth] on the candidates, answered from one pass over
   the intruder's knowledge. Agent names are public, so [{A,L}_ka] is
   synthesizable iff it or [ka] is known, and [{A,L,N,N'}_ka] iff it
   is known, or [ka] is and so is [[A,L,N,N']] or both nonces. *)
let synthesizable ?(config = Model.default_config) q =
  match lead_key q with
  | None -> []
  | Some ka ->
      let key = ref false and close = ref false and cats = ref [] in
      (* The intruder may also use its first fresh nonce. *)
      let nonces = ref [ Model.intruder_atom_base ] and crypts = ref [] in
      Field.Set.iter
        (function
          | FKey (Ka k) when k = ka -> key := true
          | FNonce n -> nonces := n :: !nonces
          | FCat [ FAgent A; FAgent L; FNonce n; FNonce n' ] ->
              cats := (n, n') :: !cats
          | FCrypt (Ka k, FCat [ FAgent A; FAgent L ]) when k = ka ->
              close := true
          | FCrypt (Ka k, FCat [ FAgent A; FAgent L; FNonce n; FNonce n' ])
            when k = ka ->
              crypts := (n, n') :: !crypts
          | _ -> ())
        (Model.intruder_knowledge ~config q);
      let pair pairs n n' =
        List.exists (fun (m, m') -> Int.equal m n && Int.equal m' n') pairs
      in
      let known n = List.exists (Int.equal n) !nonces in
      let pool = nonce_pool config in
      let acks =
        if (not !key) && !crypts = [] then []
        else
          List.concat_map
            (fun n ->
              List.filter_map
                (fun n' ->
                  if
                    pair !crypts n n'
                    || (!key && (pair !cats n n' || (known n && known n')))
                  then
                    Some
                      (FCrypt
                         ( Ka ka,
                           FCat [ FAgent A; FAgent L; FNonce n; FNonce n' ] ))
                  else None)
                pool)
            pool
      in
      if !close || !key then FCrypt (Ka ka, FCat [ FAgent A; FAgent L ]) :: acks
      else acks

let intruder_obligations_stream ?(config = Model.default_config) parts =
  let checked = ref 0 and failures = Invariants.failures () in
  let pool = List.length (nonce_pool config) in
  {
    Invariants.on_state =
      (fun q ->
        if Option.is_some (lead_key q) then begin
          checked := !checked + 1 + (pool * pool);
          List.iter
            (fun f ->
              if not (Field.Set.mem f (parts q)) then
                Invariants.fail failures (fun () ->
                    Format.asprintf "intruder can mint %a at %s" Field.pp f
                      (describe q)))
            (synthesizable ~config q)
        end);
    on_edge = no_edge;
    finish =
      (fun () ->
        [
          Invariants.make_report "intruder cannot mint (5.3)" !checked
            failures;
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
  let parts = Invariants.per_state crypt_parts in
  Invariants.combine
    [
      coverage_stream parts;
      edges_stream ();
      intruder_obligations_stream ?config parts;
    ]

let all ?config result = Invariants.check_result result (stream ?config ())
