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

(* --- Kernels against their references --- *)

(* Atoms near zero, around the intruder's base (1000) and far out, so
   comparisons and the key encoding see every width. *)
let gen_atom =
  QCheck.Gen.(
    frequency
      [
        (4, int_range 0 3);
        (2, int_range 998 1003);
        (1, int_range 0 (1 lsl 40));
      ])

let gen_key =
  QCheck.Gen.(
    frequency
      [
        (1, return Pa);
        (2, map (fun i -> Ka i) gen_atom);
        (2, map (fun i -> Kg i) gen_atom);
      ])

let gen_agent = QCheck.Gen.oneofl [ A; L; Intruder ]

(* Every constructor, nested up to depth 4, with [FCat] of length 0-4
   built directly (the smart constructor refuses fewer than two). *)
let gen_field =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 map (fun a -> FAgent a) gen_agent;
                 map (fun n -> FNonce n) gen_atom;
                 map (fun k -> FKey k) gen_key;
                 map (fun d -> FData d) gen_atom;
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun fs -> FCat fs)
                     (list_size (int_range 0 4) (self (depth - 1))) );
                 ( 2,
                   map2 (fun k f -> FCrypt (k, f)) gen_key (self (depth - 1)) );
               ]))

(* A copy sharing no block with the original, so [==] cannot decide a
   comparison and the key encoder cannot see the original's sharing. *)
let copy_key = function Pa -> Pa | Ka i -> Ka i | Kg i -> Kg i

let rec copy_field = function
  | FAgent a -> FAgent a
  | FNonce n -> FNonce n
  | FKey k -> FKey (copy_key k)
  | FData d -> FData d
  | FCat fs -> FCat (List.map copy_field fs)
  | FCrypt (k, f) -> FCrypt (copy_key k, copy_field f)

(* The field with its last atom changed: equal up to the final word. *)
let rec nudge = function
  | FAgent A -> FAgent L
  | FAgent (L | Intruder) -> FAgent A
  | FNonce n -> FNonce (n + 1)
  | FKey Pa -> FKey (Ka 0)
  | FKey (Ka i) -> FKey (Ka (i + 1))
  | FKey (Kg i) -> FKey (Kg (i + 1))
  | FData d -> FData (d + 1)
  | FCat fs -> (
      match List.rev fs with
      | [] -> FCat [ FAgent A ]
      | last :: rest -> FCat (List.rev (nudge last :: rest)))
  | FCrypt (k, f) -> FCrypt (k, nudge f)

(* The field with one more part at its end where a concatenation
   allows it: a pair whose encodings may share a prefix. *)
let rec extend = function
  | FCat fs -> FCat (fs @ [ FAgent A ])
  | FCrypt (k, f) -> FCrypt (k, extend f)
  | (FAgent _ | FNonce _ | FKey _ | FData _) as f -> FCat [ f ]

(* Pairs of unrelated values, and of a value and its variants. *)
let related gen variants =
  QCheck.Gen.(
    let* x = gen in
    oneof
      (map (fun y -> (x, y)) gen
      :: List.concat_map
           (fun v -> [ return (x, v x); return (v x, x) ])
           variants))

let labels =
  Event.
    [
      AuthInitReq; AuthKeyDist; AuthAckKey; AdminMsg; Ack; ReqClose; LReqOpen;
      LAckOpen; LConnDenied; LAuth1; LAuth2; LAuth3; LNewKey; LMemRemoved;
      LReqClose;
    ]

let gen_event_of content =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map4
            (fun label sender recipient content ->
              Event.Msg { label; sender; recipient; content })
            (oneofl labels) gen_agent gen_agent content );
        (1, map (fun f -> Event.Oops f) content);
      ])

let copy_event = function
  | Event.Msg m -> Event.Msg { m with content = copy_field m.content }
  | Event.Oops f -> Event.Oops (copy_field f)

let nudge_event = function
  | Event.Msg ({ recipient = A; _ } as m) -> Event.Msg { m with recipient = L }
  | Event.Msg m -> Event.Msg { m with content = nudge m.content }
  | Event.Oops f -> Event.Oops (nudge f)

let sign c = Int.compare c 0

let pp_pair pp (x, y) = Format.asprintf "%a  vs  %a" pp x pp y

let field_pairs = related gen_field [ copy_field; nudge; extend ]

let qcheck_field_compare =
  QCheck.Test.make ~name:"Field.compare agrees with Stdlib.compare"
    ~count:2000
    (QCheck.make ~print:(pp_pair Field.pp) field_pairs)
    (fun (f, g) -> sign (Field.compare f g) = sign (Stdlib.compare f g))

let test_int_encoding () =
  (* Every pair of ints around the 7-bit group boundaries and at the
     ends of the range: distinct ints, encodings neither equal nor one
     a prefix of the other. *)
  let ints =
    [ 0; 1; 127; 128; 129; 255; 256; 1000; 16_383; 16_384; 2_097_152;
      max_int; min_int; -1 ]
  in
  let enc n =
    let b = Buffer.create 10 in
    Field.encode_int b n;
    Buffer.contents b
  in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          if n <> m then
            Alcotest.(check bool)
              (Printf.sprintf "%d and %d" n m)
              false
              (String.starts_with ~prefix:(enc n) (enc m)))
        ints)
    ints

let encoding f =
  let b = Buffer.create 16 in
  Field.encode b f;
  Buffer.contents b

(* What lets a state key concatenate field encodings: equal fields
   encode equally, and no other field's encoding starts with theirs. *)
let qcheck_field_encode =
  QCheck.Test.make ~name:"Field.encode injective and prefix-free"
    ~count:2000
    (QCheck.make ~print:(pp_pair Field.pp) field_pairs)
    (fun (f, g) ->
      let ef = encoding f and eg = encoding g in
      if Field.equal f g then ef = eg
      else
        not
          (String.starts_with ~prefix:ef eg
          || String.starts_with ~prefix:eg ef))

let qcheck_event_compare =
  QCheck.Test.make ~name:"Event.compare agrees with Stdlib.compare"
    ~count:2000
    (QCheck.make ~print:(pp_pair Event.pp)
       (related (gen_event_of gen_field) [ copy_event; nudge_event ]))
    (fun (e, e') -> sign (Event.compare e e') = sign (Stdlib.compare e e'))

(* Analz as first written: sweep the whole set, splitting
   concatenations and opening encryptions under keys already in it,
   until a sweep adds nothing. The reference for the worklist. *)
let fixpoint_analz s =
  let changed = ref true and current = ref s in
  while !changed do
    changed := false;
    let before = !current in
    let learn part acc =
      if Field.Set.mem part acc then acc
      else begin
        changed := true;
        Field.Set.add part acc
      end
    in
    let step f acc =
      match f with
      | FCat fs -> List.fold_left (fun acc part -> learn part acc) acc fs
      | FCrypt (k, body) when Field.Set.mem (FKey k) before -> learn body acc
      | FAgent _ | FNonce _ | FKey _ | FData _ | FCrypt _ -> acc
    in
    current := Field.Set.fold step before before
  done;
  !current

(* Few keys and nonces, so encryptions often meet their keys: keys
   wrapped under keys, chains of three, and encryptions that are met
   before the key that opens them is learned. *)
let gen_analz_set =
  QCheck.Gen.(
    let key = oneofl [ Pa; Ka 0; Ka 1; Ka 2; Kg 1 ] in
    let atom =
      oneof
        [
          map (fun n -> FNonce n) (int_range 0 2);
          map (fun k -> FKey k) key;
          return (FAgent A);
        ]
    in
    let field =
      fix
        (fun self depth ->
          if depth = 0 then atom
          else
            frequency
              [
                (2, atom);
                (2, map2 (fun k f -> FCrypt (k, f)) key (self (depth - 1)));
                ( 1,
                  map
                    (fun fs -> FCat fs)
                    (list_size (int_range 0 3) (self (depth - 1))) );
              ])
        3
    in
    let chain =
      map4
        (fun k1 k2 k3 x ->
          [ FCrypt (k1, FKey k2); FCrypt (k2, FKey k3); FCrypt (k3, x) ])
        key key key field
    in
    map2
      (fun fs chains -> Field.Set.of_list (fs @ List.concat chains))
      (list_size (int_range 0 6) field)
      (list_size (int_range 0 2) chain))

let pp_set fmt s =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
    Field.pp fmt (Field.Set.elements s)

let qcheck_analz =
  QCheck.Test.make ~name:"worklist analz equals the fixpoint" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" pp_set) gen_analz_set)
    (fun s -> Field.Set.equal (Closure.analz s) (fixpoint_analz s))

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
  Array.iteri
    (fun e src ->
      Alcotest.(check bool) "endpoints stored" true
        (src < n && r.Explore.dst.(e) < n))
    r.Explore.src

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
     same states in the same discovery order, same edges, same BFS
     tree. *)
  let canons r =
    Array.to_list (Array.map Model.canon r.Explore.states)
  in
  let r1 = Lazy.force explored_small in
  List.iter
    (fun jobs ->
      let r = Explore.run ~config:small_config ~jobs () in
      let same what a b =
        Alcotest.(check bool)
          (Printf.sprintf "%s identical at jobs=%d" what jobs)
          true (a = b)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "states identical at jobs=%d" jobs)
        (canons r1) (canons r);
      same "edge sources" r.Explore.src r1.Explore.src;
      same "edge moves" r.Explore.moves r1.Explore.moves;
      same "edge destinations" r.Explore.dst r1.Explore.dst;
      same "parents" r.Explore.parent r1.Explore.parent)
    [ 2; 4 ]

let test_bfs_tree () =
  (* The BFS tree names, for every state but the initial one, the edge
     that discovered it: an edge into that state from an earlier one.
     The edges are grouped by source. *)
  let r = Lazy.force explored_small in
  Alcotest.(check int) "initial state has no parent" (-1)
    r.Explore.parent.(0);
  Array.iteri
    (fun id e ->
      if id > 0 then begin
        Alcotest.(check int) "parent edge reaches the state" id
          r.Explore.dst.(e);
        Alcotest.(check bool) "parent edge from an earlier state" true
          (r.Explore.src.(e) < id)
      end)
    r.Explore.parent;
  Array.iteri
    (fun e src ->
      if e > 0 then
        Alcotest.(check bool) "sources never decrease" true
          (r.Explore.src.(e - 1) <= src))
    r.Explore.src

(* What makes two model states the same state: every field, the
   trace compared by its events rather than by its set tree. *)
let identity q =
  Model.
    ( q.usr,
      q.lead,
      Event.Set.elements q.trace,
      q.snd,
      q.rcv,
      q.joins,
      q.accepts,
      (q.next_nonce, q.next_key, q.next_data, q.i_nonces, q.i_keys) )

let count_repeats cmp l =
  let rec go n = function
    | a :: (b :: _ as rest) -> go (if cmp a b = 0 then n + 1 else n) rest
    | [] | [ _ ] -> n
  in
  go 0 (List.sort cmp l)

let test_no_duplicate_states () =
  (* Regression: keys that depended on physical sharing gave a state
     reached by an honest send and by a replay of the same field two
     ids — 314 of the 2000 stored here. *)
  let config = { Model.default_config with mutations = [ Model.Leak_pa ] } in
  let r = Explore.run ~config ~max_states:2000 () in
  Alcotest.(check int) "capped" 2000 (Explore.state_count r);
  Alcotest.(check int) "states stored twice" 0
    (count_repeats Stdlib.compare
       (Array.to_list (Array.map identity r.Explore.states)))

let test_canon_default_states () =
  (* Every default-bounds state is a different state with a different
     key, so over these states equal keys and equal identities
     coincide. *)
  let r = Lazy.force explored in
  let states = Array.to_list r.Explore.states in
  Alcotest.(check int) "identities repeated" 0
    (count_repeats Stdlib.compare (List.map identity states));
  Alcotest.(check int) "keys repeated" 0
    (count_repeats String.compare (List.map Model.canon states))

(* The default-bounds states in id order — control states and the
   trace in set order — as the polymorphic compare and the Marshal
   keys produced them. Any change to either order moves the digest. *)
let test_state_order_pinned () =
  let r = Lazy.force explored in
  let b = Buffer.create 4096 in
  Explore.iter_states r (fun q ->
      Buffer.add_string b
        (Format.asprintf "%a %a %a\n" Model.pp_user_state q.Model.usr
           Model.pp_leader_state q.Model.lead
           (Format.pp_print_list
              ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
              Event.pp)
           (Event.Set.elements q.Model.trace)));
  Alcotest.(check string) "states digest" "cc730e418854e125a339124775de9228"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Random states from small pools, so that contents repeat, and some
   events share their content physically. *)
let gen_state =
  QCheck.Gen.(
    let small = int_range 0 3 in
    let usr =
      oneof
        [
          return Model.U_not_connected;
          map (fun n -> Model.U_waiting_for_key n) small;
          map2 (fun n k -> Model.U_connected (n, k)) small small;
        ]
    in
    let lead =
      oneof
        [
          return Model.L_not_connected;
          map2 (fun n k -> Model.L_waiting_for_key_ack (n, k)) small small;
          map2 (fun n k -> Model.L_connected (n, k)) small small;
          map2 (fun n k -> Model.L_waiting_for_ack (n, k)) small small;
        ]
    in
    let content =
      oneof
        [
          map
            (fun n -> FCrypt (Pa, cat [ FAgent A; FAgent L; FNonce n ]))
            small;
          map2
            (fun k n ->
              FCrypt (Ka k, cat [ FAgent A; FAgent L; FNonce n; FNonce 1000 ]))
            small small;
          map (fun k -> FKey (Ka k)) small;
        ]
    in
    let* contents = list_size (int_range 1 3) content in
    let* events = list_size (int_range 0 6) (gen_event_of (oneofl contents)) in
    let* usr = usr and* lead = lead in
    let* snd = list_size (int_range 0 2) small
    and* rcv = list_size (int_range 0 2) small in
    let* joins = small and* accepts = small and* next_nonce = small in
    let+ next_key = small and+ i_nonces = int_range 0 1 in
    {
      Model.usr;
      lead;
      trace = Event.Set.of_list events;
      snd;
      rcv;
      joins;
      accepts;
      next_nonce;
      next_key;
      next_data = 0;
      i_nonces;
      i_keys = 0;
    })

(* The same state rebuilt without any sharing, its trace inserted in
   reverse order so its set tree may differ too. *)
let copy_state q =
  {
    q with
    Model.trace =
      List.fold_left
        (fun s e -> Event.Set.add (copy_event e) s)
        Event.Set.empty
        (List.rev (Event.Set.elements q.Model.trace));
    snd = List.map Fun.id q.Model.snd;
    rcv = List.map Fun.id q.Model.rcv;
  }

let nudge_state i q =
  match i with
  | 0 -> { q with Model.joins = q.Model.joins + 1 }
  | 1 -> { q with Model.snd = q.Model.rcv; rcv = q.Model.snd }
  | 2 -> { q with Model.next_nonce = q.Model.next_nonce + 1 }
  | 3 -> { q with Model.i_nonces = q.Model.i_nonces + 1 }
  | _ -> (
      match Event.Set.elements q.Model.trace with
      | [] ->
          { q with Model.trace = Event.Set.singleton (Event.Oops (FKey Pa)) }
      | e :: _ ->
          { q with Model.trace = Event.Set.add (nudge_event e) q.Model.trace })

let gen_state_pair =
  QCheck.Gen.(
    let* q = gen_state in
    frequency
      [
        (1, map (fun q' -> (q, q')) gen_state);
        (2, return (q, copy_state q));
        (2, map (fun i -> (q, nudge_state i q)) (int_range 0 5));
      ])

let qcheck_canon =
  QCheck.Test.make ~name:"Model.canon equal iff identities equal" ~count:1000
    (QCheck.make gen_state_pair)
    (fun (a, b) ->
      let same_key = Model.canon a = Model.canon b
      and same_state = Stdlib.compare (identity a) (identity b) = 0 in
      same_key = same_state)

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

let test_vacuity_detected () =
  (* `verify` refuses a report that examined no state or edge. At the
     small bounds every §4 obligation checks something; at zero joins
     the search stops at the initial state and six check nothing. *)
  let reports config r =
    Invariants.all ~config r @ Properties.all r @ Diagram.all ~config r
  in
  List.iter
    (fun rep ->
      Alcotest.(check bool)
        ("small / " ^ rep.Invariants.name ^ " checks something")
        true (rep.Invariants.checked > 0))
    (reports small_config (Lazy.force explored_small));
  let config = { Model.default_config with max_joins = 0 } in
  let r = Explore.run ~config () in
  Alcotest.(check int) "zero joins: one state" 1 (Explore.state_count r);
  Alcotest.(check int) "zero joins: obligations that check nothing" 6
    (List.length
       (List.filter (fun rep -> rep.Invariants.checked = 0) (reports config r)))

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

(* The mutation tests share one exploration per weakening and bound;
   only the latest is kept, so one mutant graph at most stays live. *)
let mutant_explored =
  let last = ref None in
  fun mutation max_states ->
    match !last with
    | Some (m, n, r) when m = mutation && n = max_states -> r
    | Some _ | None ->
        last := None;
        let r =
          Explore.run ~config:(mutant_config [ mutation ]) ~max_states ()
        in
        last := Some (mutation, max_states, r);
        r

let test_mutation_no_admin_freshness () =
  (* Legacy-style admin acceptance (no nonce check): replays get
     through, so ordering/no-duplication must fail. *)
  let r = mutant_explored Model.No_admin_freshness 50_000 in
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
  let r = mutant_explored Model.No_close_auth 100_000 in
  let possession = Properties.possession r in
  let prefix = Properties.prefix_property r in
  let nodup = Properties.no_duplicates r in
  Alcotest.(check bool) "possession, prefix or no-dup violated" true
    ((not possession.Invariants.holds)
    || (not prefix.Invariants.holds)
    || not nodup.Invariants.holds)

(* With P_a leaked the intruder learns every session key from its
   key distribution, so the §5.3 obligation that it only replays
   protected fields must fail. *)
let test_mutation_leak_pa_mints () =
  let config = mutant_config [ Model.Leak_pa ] in
  let r = mutant_explored Model.Leak_pa 100_000 in
  let mint =
    List.find
      (fun rep -> rep.Invariants.name = "intruder cannot mint (5.3)")
      (Diagram.all ~config r)
  in
  Alcotest.(check bool) "mint obligation violated" false mint.Invariants.holds;
  Alcotest.(check int) "candidates checked" 6_350_175 mint.Invariants.checked;
  Alcotest.(check string) "first counterexample"
    "intruder can mint {[A,L]}_Ka0 at usr=NotConnected \
     lead=WaitingForKeyAck(N0,Ka0)"
    (List.hd mint.Invariants.violations)

(* Every Invariants and Diagram report under each weakening, rendered
   as [verify] prints it: verdict, count and first counterexamples. *)
let mutant_reports =
  [
    ( Model.Leak_pa,
      100_000,
      {|regularity (5.1)             HOLDS (35967 checked)
P_a secrecy (5.1)            VIOLATED (100000 checked)
    counterexample: usr=NotConnected lead=NotConnected |trace|=0
    counterexample: usr=NotConnected lead=NotConnected |trace|=1
    counterexample: usr=WaitingForKey(N0) lead=NotConnected |trace|=1
    counterexample: usr=NotConnected lead=WaitingForKeyAck(N0,Ka0) |trace|=2
    counterexample: usr=WaitingForKey(N0) lead=NotConnected |trace|=2
session-key secrecy (5.2)    VIOLATED (97695 checked)
    counterexample: Ka0 leaked while in use: usr=NotConnected lead=WaitingForKeyAck(N0,Ka0) |trace|=2
    counterexample: Ka0 leaked while in use: usr=WaitingForKey(N0) lead=WaitingForKeyAck(N1,Ka0) |trace|=2
    counterexample: Ka0 leaked while in use: usr=NotConnected lead=WaitingForKeyAck(N0,Ka0) |trace|=3
    counterexample: Ka0 leaked while in use: usr=NotConnected lead=WaitingForKeyAck(N0,Ka0) |trace|=3
    counterexample: Ka0 leaked while in use: usr=NotConnected lead=WaitingForKeyAck(N0,Ka0) |trace|=3
coideal invariant (5.2.5)    HOLDS (97695 checked)
oops keys public (4.1)       HOLDS (4120 checked)
diagram coverage (5.3)       VIOLATED (100000 checked)
    counterexample: Q12 invariant fails at usr=NotConnected lead=WaitingForKeyAck(N0,Ka0)
    counterexample: Q12 invariant fails at usr=NotConnected lead=WaitingForKeyAck(N0,Ka0)
    counterexample: Q12 invariant fails at usr=NotConnected lead=WaitingForKeyAck(N0,Ka0)
    counterexample: Q3 invariant fails at usr=WaitingForKey(N0) lead=WaitingForKeyAck(N1,Ka0)
    counterexample: Q3 invariant fails at usr=WaitingForKey(N0) lead=WaitingForKeyAck(N1,Ka0)
diagram edges (5.3)          VIOLATED (225194 checked)
    counterexample: edge touches unclassifiable state
    counterexample: edge touches unclassifiable state
    counterexample: Q9 --A:recv-keydist--> Q5 not in diagram
    counterexample: Q9 --A:recv-keydist--> Q5 not in diagram
    counterexample: Q9 --A:recv-keydist--> Q5 not in diagram
intruder cannot mint (5.3)   VIOLATED (6350175 checked)
    counterexample: intruder can mint {[A,L]}_Ka0 at usr=NotConnected lead=WaitingForKeyAck(N0,Ka0)
    counterexample: intruder can mint {[A,L,N0,N0]}_Ka0 at usr=NotConnected lead=WaitingForKeyAck(N0,Ka0)
    counterexample: intruder can mint {[A,L,N0,N1000]}_Ka0 at usr=NotConnected lead=WaitingForKeyAck(N0,Ka0)
    counterexample: intruder can mint {[A,L,N1000,N0]}_Ka0 at usr=NotConnected lead=WaitingForKeyAck(N0,Ka0)
    counterexample: intruder can mint {[A,L,N1000,N1000]}_Ka0 at usr=NotConnected lead=WaitingForKeyAck(N0,Ka0)|} );
    ( Model.No_close_auth,
      100_000,
      {|regularity (5.1)             HOLDS (35757 checked)
P_a secrecy (5.1)            HOLDS (100000 checked)
session-key secrecy (5.2)    HOLDS (23238 checked)
coideal invariant (5.2.5)    HOLDS (23238 checked)
oops keys public (4.1)       HOLDS (103599 checked)
diagram coverage (5.3)       VIOLATED (100000 checked)
    counterexample: Q2 invariant fails at usr=WaitingForKey(N0) lead=NotConnected
    counterexample: Q12 invariant fails at usr=NotConnected lead=WaitingForKeyAck(N1,Ka0)
    counterexample: Q2 invariant fails at usr=WaitingForKey(N0) lead=NotConnected
    counterexample: Q12 invariant fails at usr=NotConnected lead=WaitingForKeyAck(N1,Ka0)
    counterexample: Q2 invariant fails at usr=WaitingForKey(N0) lead=NotConnected
diagram edges (5.3)          VIOLATED (178305 checked)
    counterexample: edge touches unclassifiable state
    counterexample: edge touches unclassifiable state
    counterexample: edge touches unclassifiable state
    counterexample: edge touches unclassifiable state
    counterexample: edge touches unclassifiable state
intruder cannot mint (5.3)   HOLDS (1510470 checked)|} );
    ( Model.No_admin_freshness,
      50_000,
      {|regularity (5.1)             HOLDS (1023 checked)
P_a secrecy (5.1)            HOLDS (895 checked)
session-key secrecy (5.2)    HOLDS (652 checked)
coideal invariant (5.2.5)    HOLDS (652 checked)
oops keys public (4.1)       HOLDS (336 checked)
diagram coverage (5.3)       VIOLATED (895 checked)
    counterexample: Q5 invariant fails at usr=Connected(N5,Ka0) lead=Connected(N4,Ka0)
    counterexample: Q5 invariant fails at usr=Connected(N5,Ka0) lead=Connected(N4,Ka0)
    counterexample: Q5 invariant fails at usr=Connected(N5,Ka0) lead=Connected(N4,Ka0)
    counterexample: Q5 invariant fails at usr=Connected(N5,Ka0) lead=Connected(N4,Ka0)
    counterexample: Q6 invariant fails at usr=Connected(N6,Ka0) lead=WaitingForAck(N5,Ka0)
diagram edges (5.3)          HOLDS (1466 checked)
intruder cannot mint (5.3)   HOLDS (42380 checked)|} );
  ]

let test_mutant_reports_pinned mutation () =
  let _, max_states, expected =
    List.find (fun (m, _, _) -> m = mutation) mutant_reports
  in
  let config = mutant_config [ mutation ] in
  let r = mutant_explored mutation max_states in
  let reports = Invariants.all ~config r @ Diagram.all ~config r in
  Alcotest.(check string) "reports" expected
    (String.concat "\n"
       (List.map (Format.asprintf "%a" Invariants.pp_report) reports))

(* [Diagram.synthesizable] is [Closure.in_synth] on every candidate
   of the intruder obligation, state by state. *)
let check_synthesizable config r =
  let pool =
    List.init config.Model.max_nonces Fun.id
    @ List.init config.Model.intruder_fresh (fun i ->
          Model.intruder_atom_base + i)
  in
  let found = ref 0 in
  Explore.iter_states r (fun q ->
      let expected =
        match q.Model.lead with
        | Model.L_not_connected -> []
        | Model.L_waiting_for_key_ack (_, ka)
        | Model.L_connected (_, ka)
        | Model.L_waiting_for_ack (_, ka) ->
            let know =
              Field.Set.add
                (FNonce Model.intruder_atom_base)
                (Model.intruder_knowledge ~config q)
            in
            let ack n n' =
              FCrypt (Ka ka, cat [ FAgent A; FAgent L; FNonce n; FNonce n' ])
            in
            List.filter (Closure.in_synth know)
              (FCrypt (Ka ka, cat [ FAgent A; FAgent L ])
              :: List.concat_map (fun n -> List.map (ack n) pool) pool)
      in
      let got = Diagram.synthesizable ~config q in
      found := !found + List.length got;
      if not (List.equal Field.equal expected got) then
        Alcotest.failf "synthesizable differs at usr=%a lead=%a |trace|=%d"
          Model.pp_user_state q.Model.usr Model.pp_leader_state q.Model.lead
          (Event.Set.cardinal q.Model.trace));
  Alcotest.(check bool) "some candidate synthesizable" true (!found > 0)

let test_synthesizable_default () =
  check_synthesizable Model.default_config (Lazy.force explored)

let test_synthesizable_mutant mutation () =
  let _, max_states, _ =
    List.find (fun (m, _, _) -> m = mutation) mutant_reports
  in
  check_synthesizable (mutant_config [ mutation ])
    (mutant_explored mutation max_states)

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
      replay Model.initial path;
      (* A copy that is not physically in the result is found by its
         key, with the same path. *)
      let copy = { q with Model.joins = q.Model.joins } in
      Alcotest.(check bool) "copy is not the stored state" false (copy == q);
      Alcotest.(check bool) "same path from a copy" true
        (List.equal
           (fun (m, s) (m', s') -> m = m' && s == s')
           path (Explore.path_to r copy))

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

let test_sentinel_key_range () =
  (* The sentinel's key holds each field in one byte: bounds that let a
     score pass 255 are refused, never aliased onto another state. *)
  let bounds =
    {
      Sentinel_model.rate_limit_at = 1;
      quarantine_at = 3;
      expel_at = 5;
      slip_cap = 300;
      off_cap = 0;
      cls_cap = 0;
    }
  in
  match Sentinel_model.explore ~bounds () with
  | _ -> Alcotest.fail "explored a score the key cannot hold"
  | exception Invalid_argument _ -> ()

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
        Alcotest.test_case "int encoding prefix-free" `Quick test_int_encoding;
      ]
      @ List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            qcheck_field_compare;
            qcheck_event_compare;
            qcheck_field_encode;
            qcheck_analz;
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
        Alcotest.test_case "BFS tree and edge order" `Quick test_bfs_tree;
        Alcotest.test_case "deep scenarios reachable" `Quick
          test_full_session_reachable;
        Alcotest.test_case "intruder live" `Quick test_intruder_injections_happen;
        Alcotest.test_case "no state stored twice (Leak_pa, capped)" `Quick
          test_no_duplicate_states;
        Alcotest.test_case "canonical keys (default bounds)" `Quick
          test_canon_default_states;
        Alcotest.test_case "state order pinned" `Quick test_state_order_pinned;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ qcheck_canon ] );
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
        Alcotest.test_case "vacuity detected" `Quick test_vacuity_detected;
        Alcotest.test_case "synthesizable = Synth (default)" `Quick
          test_synthesizable_default;
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
        Alcotest.test_case "reports pinned (No_admin_freshness)" `Slow
          (test_mutant_reports_pinned Model.No_admin_freshness);
        Alcotest.test_case "synthesizable = Synth (No_admin_freshness)" `Slow
          (test_synthesizable_mutant Model.No_admin_freshness);
        Alcotest.test_case "leaked Pa detected" `Slow test_mutation_leak_pa;
        Alcotest.test_case "intruder can mint under leaked Pa" `Slow
          test_mutation_leak_pa_mints;
        Alcotest.test_case "reports pinned (Leak_pa)" `Slow
          (test_mutant_reports_pinned Model.Leak_pa);
        Alcotest.test_case "synthesizable = Synth (Leak_pa)" `Slow
          (test_synthesizable_mutant Model.Leak_pa);
        Alcotest.test_case "plaintext close detected" `Slow
          test_mutation_no_close_auth;
        Alcotest.test_case "reports pinned (No_close_auth)" `Slow
          (test_mutant_reports_pinned Model.No_close_auth);
        Alcotest.test_case "synthesizable = Synth (No_close_auth)" `Slow
          (test_synthesizable_mutant Model.No_close_auth);
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
        Alcotest.test_case "key refuses out-of-range scores" `Quick
          test_sentinel_key_range;
      ] );
  ]
