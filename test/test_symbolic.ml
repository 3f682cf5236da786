(* Tests for the symbolic model and the §5 verification (E4, E8-E10):
   the field algebra and its closure operators, the exhaustive
   exploration, the secrecy invariants, the verification diagram, and
   — crucially — mutation tests showing the checkers actually detect
   broken protocols. *)

open Symbolic
open Field

(* --- Field algebra and closures --- *)

let f_set l = Field.Set.of_list l

let test_parts () =
  let f = FCrypt (Pa, cat [ FAgent A; FNonce 1; FCrypt (Ka 0, FNonce 2) ]) in
  let p = Closure.parts_of_field f in
  List.iter
    (fun x -> Alcotest.(check bool) "part present" true (Field.Set.mem x p))
    [ f; FAgent A; FNonce 1; FCrypt (Ka 0, FNonce 2); FNonce 2 ];
  (* Parts ignores keys needed: the body of an undecryptable crypt is
     still a part. *)
  Alcotest.(check bool) "key itself not a part" false
    (Field.Set.mem (FKey Pa) p)

let test_analz_needs_key () =
  let secret = FNonce 7 in
  let enc = FCrypt (Ka 0, secret) in
  let without_key = Closure.analz (f_set [ enc ]) in
  Alcotest.(check bool) "cannot extract" false (Field.Set.mem secret without_key);
  let with_key = Closure.analz (f_set [ enc; FKey (Ka 0) ]) in
  Alcotest.(check bool) "can extract" true (Field.Set.mem secret with_key)

let test_analz_transitive () =
  (* Key delivered under another key: analz must chain decryptions. *)
  let inner = FCrypt (Ka 1, FNonce 9) in
  let key_package = FCrypt (Ka 0, FKey (Ka 1)) in
  let s = Closure.analz (f_set [ inner; key_package; FKey (Ka 0) ]) in
  Alcotest.(check bool) "chained extraction" true (Field.Set.mem (FNonce 9) s)

let test_analz_splits_cat () =
  let s = Closure.analz (f_set [ cat [ FNonce 1; FKey (Ka 0) ]; FCrypt (Ka 0, FNonce 5) ]) in
  Alcotest.(check bool) "cat split and key used" true
    (Field.Set.mem (FNonce 5) s)

let test_synth () =
  let know = f_set [ FNonce 1; FKey (Ka 0) ] in
  Alcotest.(check bool) "can build known atom" true
    (Closure.in_synth know (FNonce 1));
  Alcotest.(check bool) "can concat" true
    (Closure.in_synth know (cat [ FNonce 1; FAgent A ]));
  Alcotest.(check bool) "can encrypt with known key" true
    (Closure.in_synth know (FCrypt (Ka 0, FNonce 1)));
  Alcotest.(check bool) "cannot use unknown key" false
    (Closure.in_synth know (FCrypt (Pa, FNonce 1)));
  Alcotest.(check bool) "cannot mint nonce" false
    (Closure.in_synth know (FNonce 2));
  Alcotest.(check bool) "agents public" true
    (Closure.in_synth know (FAgent L))

let test_synth_replay () =
  (* A whole ciphertext in the knowledge is replayable even without
     the key. *)
  let blob = FCrypt (Pa, FNonce 3) in
  let know = f_set [ blob ] in
  Alcotest.(check bool) "replay" true (Closure.in_synth know blob);
  Alcotest.(check bool) "but not variants" false
    (Closure.in_synth know (FCrypt (Pa, FNonce 4)))

let test_ideal () =
  let s = f_set [ FKey (Ka 0); FKey Pa ] in
  Alcotest.(check bool) "key itself in ideal" true
    (Closure.in_ideal s (FKey (Ka 0)));
  Alcotest.(check bool) "cat containing key in ideal" true
    (Closure.in_ideal s (cat [ FNonce 1; FKey (Ka 0) ]));
  (* {Ka}_Kb with Kb outside S: decryptable by whoever has Kb, so
     still dangerous -> in ideal. *)
  Alcotest.(check bool) "wrapped under outside key in ideal" true
    (Closure.in_ideal s (FCrypt (Ka 5, FKey (Ka 0))));
  (* {Ka}_Pa with Pa inside S: protected by a key of S -> coideal. *)
  Alcotest.(check bool) "wrapped under S-key safe" true
    (Closure.in_coideal s (FCrypt (Pa, FKey (Ka 0))));
  Alcotest.(check bool) "unrelated field safe" true
    (Closure.in_coideal s (cat [ FNonce 1; FAgent A ]))

let test_coideal_analz_closure_sample () =
  (* Property (3): Analz(C(S)) = C(S) — sampled: analyzing a set of
     safe fields yields only safe fields. *)
  let s = f_set [ FKey (Ka 0); FKey Pa ] in
  let safe =
    f_set
      [
        FCrypt (Pa, FKey (Ka 0));
        cat [ FAgent A; FNonce 1 ];
        FCrypt (Ka 1, FNonce 2);
        FKey (Ka 1);
      ]
  in
  Field.Set.iter
    (fun f -> Alcotest.(check bool) "premise: safe" true (Closure.in_coideal s f))
    safe;
  Field.Set.iter
    (fun f ->
      Alcotest.(check bool)
        (Format.asprintf "analz keeps %a safe" Field.pp f)
        true (Closure.in_coideal s f))
    (Closure.analz safe)

(* --- Exploration --- *)

let small_config =
  { Model.default_config with max_nonces = 8; max_joins = 1; max_admin = 2 }

let explored = lazy (Explore.run ())
let explored_small = lazy (Explore.run ~config:small_config ())

let test_exploration_complete () =
  let r = Lazy.force explored in
  Alcotest.(check bool) "not truncated" false r.Explore.truncated;
  Alcotest.(check bool) "thousands of states" true (Explore.state_count r > 10_000);
  Alcotest.(check bool) "edges outnumber states" true
    (Explore.edge_count r > Explore.state_count r);
  (* Exact counts at the default bounds: any engine change must leave
     the explored graph as it is. *)
  Alcotest.(check int) "states at default bounds" 20223 (Explore.state_count r);
  Alcotest.(check int) "edges at default bounds" 32754 (Explore.edge_count r)

let test_exploration_deterministic () =
  let r1 = Explore.run ~config:small_config () in
  let r2 = Explore.run ~config:small_config () in
  Alcotest.(check int) "same state count" (Explore.state_count r1)
    (Explore.state_count r2);
  Alcotest.(check int) "same edge count" (Explore.edge_count r1)
    (Explore.edge_count r2)

let test_full_session_reachable () =
  let r = Lazy.force explored in
  (* A state where A has accepted two admin messages exists. *)
  let found =
    Explore.find_state r (fun q -> List.length q.Model.rcv >= 2)
  in
  Alcotest.(check bool) "busy session reached" true (found <> None);
  (* A post-Oops rejoin exists: some session key oopsed while A is
     connected under another. *)
  let rejoined =
    Explore.find_state r (fun q ->
        match q.Model.usr with
        | Model.U_connected (_, k) ->
            Event.Set.exists
              (function
                | Event.Oops (FKey (Ka k')) -> k' <> k
                | Event.Oops _ | Event.Msg _ -> false)
              q.Model.trace
        | _ -> false)
  in
  Alcotest.(check bool) "post-oops session reached" true (rejoined <> None)

let test_truncation_consistent () =
  (* Regression: with a state cap, the edge count must agree with what
     iter_edges actually visits (dropped frontier states used to leave
     dangling edges behind). *)
  (* small_config reaches 471 states exhaustively; cap well below. *)
  let r = Explore.run ~config:small_config ~max_states:200 () in
  Alcotest.(check bool) "truncated" true r.Explore.truncated;
  Alcotest.(check int) "capped exactly" 200 (Explore.state_count r);
  Alcotest.(check bool) "drops reported" true (r.Explore.frontier_dropped > 0);
  let visited = ref 0 in
  Explore.iter_edges r (fun _ _ _ -> incr visited);
  Alcotest.(check int) "edge_count = edges visited" (Explore.edge_count r)
    !visited;
  (* Every edge endpoint is a stored state. *)
  let n = Explore.state_count r in
  Explore.iter_edges r (fun q _ q' ->
      let id s = Hashtbl.find r.Explore.index (Model.canon s) in
      Alcotest.(check bool) "endpoints stored" true (id q < n && id q' < n))

let test_matches_baseline () =
  (* The interned engine visits exactly the states the seed engine
     visited; its edge store is deduplicated, so edges can only
     shrink. *)
  let r = Lazy.force explored_small in
  let b = Explore.Baseline.run ~config:small_config () in
  Alcotest.(check int) "same state count" (Explore.Baseline.state_count b)
    (Explore.state_count r);
  Alcotest.(check bool) "deduplicated edges" true
    (Explore.edge_count r <= Explore.Baseline.edge_count b)

let test_parallel_deterministic () =
  (* Any jobs value must produce bit-for-bit the same exploration:
     same states in the same discovery order, same edges. *)
  let canons r =
    Array.to_list (Array.map Model.canon r.Explore.states)
  in
  let r1 = Lazy.force explored_small in
  List.iter
    (fun jobs ->
      let r = Explore.run ~config:small_config ~jobs () in
      Alcotest.(check (list string))
        (Printf.sprintf "states identical at jobs=%d" jobs)
        (canons r1) (canons r);
      Alcotest.(check bool)
        (Printf.sprintf "edges identical at jobs=%d" jobs)
        true
        (r.Explore.edges = r1.Explore.edges))
    [ 2; 4 ]

let test_stream_matches_retained () =
  (* Streaming never retains the state set but must see exactly the
     same states and edges, and the streaming checkers must reach the
     same verdicts as the retained ones. *)
  let r = Lazy.force explored_small in
  let states = ref 0 and edges = ref 0 in
  let checker =
    Invariants.combine
      [ Invariants.stream ~config:small_config (); Properties.stream ();
        Diagram.stream ~config:small_config () ]
  in
  let st =
    Explore.run_stream ~config:small_config
      ~on_state:(fun q -> incr states; checker.Invariants.on_state q)
      ~on_edge:(fun q m q' -> incr edges; checker.Invariants.on_edge q m q')
      ()
  in
  Alcotest.(check int) "stream states = retained" (Explore.state_count r)
    st.Explore.stream_states;
  Alcotest.(check int) "stream edges = retained" (Explore.edge_count r)
    st.Explore.stream_edges;
  Alcotest.(check int) "callbacks saw every state" st.Explore.stream_states
    !states;
  Alcotest.(check int) "callbacks saw every edge" st.Explore.stream_edges
    !edges;
  Alcotest.(check bool) "exhaustive" false st.Explore.stream_truncated;
  let streamed = checker.Invariants.finish () in
  let retained =
    Invariants.all ~config:small_config r
    @ Properties.all r
    @ Diagram.all ~config:small_config r
  in
  Alcotest.(check int) "same report count" (List.length retained)
    (List.length streamed);
  List.iter2
    (fun (s : Invariants.report) (t : Invariants.report) ->
      Alcotest.(check string) "report name" t.Invariants.name s.Invariants.name;
      Alcotest.(check bool) ("verdict " ^ s.Invariants.name) t.Invariants.holds
        s.Invariants.holds;
      Alcotest.(check int) ("checked " ^ s.Invariants.name) t.Invariants.checked
        s.Invariants.checked)
    streamed retained

let test_intruder_injections_happen () =
  let r = Lazy.force explored in
  let injected = ref false in
  Explore.iter_edges r (fun _ move _ ->
      match move with Model.E_inject _ -> injected := true | _ -> ());
  Alcotest.(check bool) "intruder is live" true !injected

(* --- Invariants (P1, P2) and properties (P4) --- *)

let check_all_hold name reports =
  List.iter
    (fun rep ->
      Alcotest.(check bool)
        (Printf.sprintf "%s / %s" name rep.Invariants.name)
        true rep.Invariants.holds)
    reports

let test_invariants_default () =
  check_all_hold "default" (Invariants.all (Lazy.force explored))

let test_invariants_small () =
  check_all_hold "small" (Invariants.all (Lazy.force explored_small))

let test_properties_default () =
  check_all_hold "default" (Properties.all (Lazy.force explored))

let test_properties_small () =
  check_all_hold "small" (Properties.all (Lazy.force explored_small))

let test_diagram_default () =
  check_all_hold "default" (Diagram.all (Lazy.force explored))

let test_diagram_small () =
  check_all_hold "small"
    (Diagram.all ~config:small_config (Lazy.force explored_small))

let test_diagram_all_boxes_visited () =
  let counts = Diagram.visit_counts (Lazy.force explored) in
  List.iter
    (fun (name, n) ->
      Alcotest.(check bool) (name ^ " visited") true (n > 0))
    counts

let test_larger_bounds () =
  (* Three admin messages per session, larger nonce pool: ~60k states,
     every check must stay green. *)
  let config =
    { Model.default_config with max_admin = 3; max_nonces = 12 }
  in
  let r = Explore.run ~config ~max_states:500_000 () in
  Alcotest.(check bool) "exhaustive" false r.Explore.truncated;
  Alcotest.(check bool) "well beyond default" true
    (Explore.state_count r > 50_000);
  check_all_hold "larger" (Invariants.all ~config r);
  check_all_hold "larger" (Properties.all r);
  check_all_hold "larger" (Diagram.all ~config r)

(* --- Mutation tests: the checkers must catch broken protocols --- *)

let mutant_config mutations =
  {
    Model.default_config with
    max_nonces = 7;
    max_joins = 1;
    max_admin = 2;
    mutations;
  }

let test_mutation_no_admin_freshness () =
  (* Legacy-style admin acceptance (no nonce check): replays get
     through, so ordering/no-duplication must fail. *)
  let config = mutant_config [ Model.No_admin_freshness ] in
  let r = Explore.run ~config ~max_states:50_000 () in
  let prefix = Properties.prefix_property r in
  let nodup = Properties.no_duplicates r in
  Alcotest.(check bool) "prefix or no-dup violated" true
    ((not prefix.Invariants.holds) || not nodup.Invariants.holds)

let test_mutation_leak_pa () =
  (* Compromised long-term key: P1 fails, and the intruder can
     complete a handshake in A's name, breaking proper auth. *)
  let config = mutant_config [ Model.Leak_pa ] in
  let r = Explore.run ~config ~max_states:50_000 () in
  let p1 = Invariants.long_term_key_secrecy ~config r in
  Alcotest.(check bool) "P_a secrecy violated" false p1.Invariants.holds;
  let auth = Properties.proper_authentication r in
  let p2 = Invariants.session_key_secrecy ~config r in
  Alcotest.(check bool) "auth or session-key secrecy violated" true
    ((not auth.Invariants.holds) || not p2.Invariants.holds)

let test_mutation_no_close_auth () =
  (* Plaintext ReqClose (the §2.2 weakness): the intruder can close
     A's session, producing a premature Oops while A still trusts the
     key; something downstream must break. *)
  let config = mutant_config [ Model.No_close_auth ] in
  let r = Explore.run ~config ~max_states:100_000 () in
  let possession = Properties.possession r in
  let prefix = Properties.prefix_property r in
  let nodup = Properties.no_duplicates r in
  Alcotest.(check bool) "possession, prefix or no-dup violated" true
    ((not possession.Invariants.holds)
    || (not prefix.Invariants.holds)
    || not nodup.Invariants.holds)

(* --- Counterexample reconstruction --- *)

let test_path_to_deep_state () =
  let r = Lazy.force explored_small in
  match Explore.find_state r (fun q -> List.length q.Model.rcv >= 2) with
  | None -> Alcotest.fail "no deep state"
  | Some q ->
      let path = Explore.path_to r q in
      Alcotest.(check bool) "path nonempty" true (path <> []);
      (* The path really ends at q and starts from a successor of the
         initial state. *)
      (match List.rev path with
      | (_, last) :: _ ->
          Alcotest.(check string) "ends at target" (Model.canon q)
            (Model.canon last)
      | [] -> Alcotest.fail "empty path");
      (* Each step is a genuine transition of the model. *)
      let rec replay prev = function
        | [] -> ()
        | (move, next) :: rest ->
            let succ = Model.successors small_config prev in
            let found =
              List.exists
                (fun (m, s) -> m = move && Model.canon s = Model.canon next)
                succ
            in
            Alcotest.(check bool) "step is a real transition" true found;
            replay next rest
      in
      replay Model.initial path

let mutant_config_cex mutations =
  {
    Model.default_config with
    max_nonces = 7;
    max_joins = 1;
    max_admin = 1;
    mutations;
  }

let test_counterexample_under_mutation () =
  (* Under Leak_pa, find a violating state and print its trace — the
     model checker is usable as an attack-finding tool. *)
  let config = mutant_config_cex [ Model.Leak_pa ] in
  let r = Explore.run ~config ~max_states:50_000 () in
  match
    Explore.find_state r (fun q ->
        Field.Set.mem (FKey Pa) (Model.intruder_knowledge ~config q))
  with
  | None -> Alcotest.fail "no violation found under Leak_pa"
  | Some q ->
      let path = Explore.path_to r q in
      let rendered = Format.asprintf "%a" Explore.pp_path path in
      Alcotest.(check bool) "trace renders" true (String.length rendered >= 0)

(* --- Paper-predicate spot checks --- *)

let test_paper_q_predicates_single_join () =
  (* With a single join the published Q1/Q2/Q3/Q4/Q12 trace conditions
     hold verbatim on every state of the matching shape. *)
  let r = Lazy.force explored_small in
  Explore.iter_states r (fun q ->
      match Diagram.classify q with
      | Some box ->
          Alcotest.(check bool)
            (Printf.sprintf "%s invariant" (Diagram.box_name box))
            true (Diagram.box_invariant q box)
      | None -> Alcotest.fail "unclassifiable state")

(* --- Recovery plane (replication / demotion) --- *)

let explored_recovery = lazy (Recovery.explore ())

let test_recovery_explores () =
  let r = Lazy.force explored_recovery in
  Alcotest.(check bool) "non-trivial state space" true (Recovery.state_count r > 100);
  Alcotest.(check bool) "non-trivial edge count" true
    (Recovery.edge_count r > Recovery.state_count r);
  Alcotest.(check int) "states at default bounds" 1274 (Recovery.state_count r);
  Alcotest.(check int) "edges at default bounds" 7004 (Recovery.edge_count r)

let test_recovery_deterministic () =
  let r1 = Lazy.force explored_recovery in
  let r2 = Recovery.explore () in
  Alcotest.(check int) "same states" (Recovery.state_count r1)
    (Recovery.state_count r2);
  Alcotest.(check int) "same edges" (Recovery.edge_count r1)
    (Recovery.edge_count r2)

let test_recovery_obligations_hold () =
  let reports = Recovery.reports (Lazy.force explored_recovery) in
  Alcotest.(check int) "four reports" 4 (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s holds" r.Invariants.name)
        true r.Invariants.holds;
      Alcotest.(check bool)
        (Printf.sprintf "%s checked something" r.Invariants.name)
        true
        (r.Invariants.checked > 0))
    reports

let test_recovery_not_vacuous () =
  (* The attack-surface report is itself the non-vacuity witness: it
     only holds when forged and replayed demotion frames were actually
     fired and rejected, a durable close is reachable, and a genuine
     heal-path demotion edge exists. *)
  let reports = Recovery.reports (Lazy.force explored_recovery) in
  match
    List.find_opt
      (fun r -> r.Invariants.name = "attack surface exercised")
      reports
  with
  | None -> Alcotest.fail "non-vacuity report missing"
  | Some r -> Alcotest.(check bool) "attack surface exercised" true r.Invariants.holds

let test_recovery_larger_bounds () =
  let bounds = { Recovery.max_epoch = 4; max_minted = 4 } in
  let reports = Recovery.reports (Recovery.explore ~bounds ()) in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s holds at larger bounds" r.Invariants.name)
        true r.Invariants.holds)
    reports

(* --- Sentinel plane (attribution / containment ladder) --- *)

let test_sentinel_model_pinned () =
  let r = Sentinel_model.explore () in
  Alcotest.(check int) "states at default bounds" 64860
    (Sentinel_model.state_count r);
  Alcotest.(check int) "edges at default bounds" 372282
    (Sentinel_model.edge_count r);
  let reports = Sentinel_model.reports r in
  List.iter
    (fun rep ->
      Alcotest.(check bool)
        (rep.Invariants.name ^ " holds")
        true rep.Invariants.holds)
    reports;
  Alcotest.(check (list int))
    "checked per obligation"
    [ 64860; 372282; 372282; 372282; 64860 ]
    (List.map (fun rep -> rep.Invariants.checked) reports)

let suite =
  [
    ( "symbolic-algebra (§4)",
      [
        Alcotest.test_case "parts" `Quick test_parts;
        Alcotest.test_case "analz needs key" `Quick test_analz_needs_key;
        Alcotest.test_case "analz transitive" `Quick test_analz_transitive;
        Alcotest.test_case "analz splits cat" `Quick test_analz_splits_cat;
        Alcotest.test_case "synth" `Quick test_synth;
        Alcotest.test_case "synth replay" `Quick test_synth_replay;
        Alcotest.test_case "ideal/coideal" `Quick test_ideal;
        Alcotest.test_case "coideal analz-closed (sample)" `Quick
          test_coideal_analz_closure_sample;
      ] );
    ( "symbolic-exploration (§4)",
      [
        Alcotest.test_case "complete within bounds" `Quick
          test_exploration_complete;
        Alcotest.test_case "deterministic" `Quick test_exploration_deterministic;
        Alcotest.test_case "truncation consistent" `Quick
          test_truncation_consistent;
        Alcotest.test_case "matches baseline engine" `Quick
          test_matches_baseline;
        Alcotest.test_case "parallel deterministic" `Quick
          test_parallel_deterministic;
        Alcotest.test_case "stream matches retained" `Quick
          test_stream_matches_retained;
        Alcotest.test_case "deep scenarios reachable" `Quick
          test_full_session_reachable;
        Alcotest.test_case "intruder live" `Quick test_intruder_injections_happen;
      ] );
    ( "symbolic-verification (§5)",
      [
        Alcotest.test_case "invariants (default)" `Quick test_invariants_default;
        Alcotest.test_case "invariants (small)" `Quick test_invariants_small;
        Alcotest.test_case "properties (default)" `Quick test_properties_default;
        Alcotest.test_case "properties (small)" `Quick test_properties_small;
        Alcotest.test_case "diagram (default)" `Quick test_diagram_default;
        Alcotest.test_case "diagram (small)" `Quick test_diagram_small;
        Alcotest.test_case "all boxes visited" `Quick
          test_diagram_all_boxes_visited;
        Alcotest.test_case "paper predicates (1-join)" `Quick
          test_paper_q_predicates_single_join;
        Alcotest.test_case "path reconstruction" `Quick test_path_to_deep_state;
        Alcotest.test_case "counterexample trace" `Quick
          test_counterexample_under_mutation;
        Alcotest.test_case "larger bounds" `Slow test_larger_bounds;
      ] );
    ( "symbolic-mutations",
      [
        Alcotest.test_case "no admin freshness detected" `Slow
          test_mutation_no_admin_freshness;
        Alcotest.test_case "leaked Pa detected" `Slow test_mutation_leak_pa;
        Alcotest.test_case "plaintext close detected" `Slow
          test_mutation_no_close_auth;
      ] );
    ( "symbolic-recovery",
      [
        Alcotest.test_case "explores" `Quick test_recovery_explores;
        Alcotest.test_case "deterministic" `Quick test_recovery_deterministic;
        Alcotest.test_case "obligations hold" `Quick
          test_recovery_obligations_hold;
        Alcotest.test_case "not vacuous" `Quick test_recovery_not_vacuous;
        Alcotest.test_case "larger bounds" `Slow test_recovery_larger_bounds;
      ] );
    ( "symbolic-sentinel",
      [
        Alcotest.test_case "counts and obligations pinned" `Quick
          test_sentinel_model_pinned;
      ] );
  ]
