(* Property-based scenario tests: random operation scripts (joins,
   leaves, rekeys, expulsions, admin notices, app messages, replays,
   garbage injection) run against the improved protocol over the
   network simulator, then global sanity invariants are checked at
   quiescence. This is the runtime counterpart of the symbolic
   exploration: unstructured schedules instead of exhaustive ones. *)

open Enclaves
module F = Wire.Frame

let names = [| "u0"; "u1"; "u2"; "u3" |]
let directory = Array.to_list (Array.map (fun n -> (n, n ^ "-pw")) names)

type op =
  | Join of int
  | Leave of int
  | Rekey
  | Expel of int
  | Notice of int
  | App of int * int
  | Replay_admin of int  (** re-inject the i-th admin frame seen so far *)
  | Garbage of int * int  (** random bytes to member [i] *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Join i) (int_bound 3));
        (2, map (fun i -> Leave i) (int_bound 3));
        (2, return Rekey);
        (1, map (fun i -> Expel i) (int_bound 3));
        (2, map (fun i -> Notice i) (int_bound 100));
        (3, map2 (fun i j -> App (i, j)) (int_bound 3) (int_bound 100));
        (2, map (fun i -> Replay_admin i) (int_bound 50));
        (1, map2 (fun i j -> Garbage (i, j)) (int_bound 3) (int_bound 1000));
      ])

let pp_op = function
  | Join i -> Printf.sprintf "Join %d" i
  | Leave i -> Printf.sprintf "Leave %d" i
  | Rekey -> "Rekey"
  | Expel i -> Printf.sprintf "Expel %d" i
  | Notice i -> Printf.sprintf "Notice %d" i
  | App (i, j) -> Printf.sprintf "App (%d,%d)" i j
  | Replay_admin i -> Printf.sprintf "Replay %d" i
  | Garbage (i, j) -> Printf.sprintf "Garbage (%d,%d)" i j

let script_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 5 25) op_gen)

(* Apply a script; run the simulation to quiescence after each op so
   every state we pass through is a quiescent one. *)
let apply_script ops =
  let d = Enclaves.Driver.Improved.create ~seed:4242L ~leader:"leader" ~directory () in
  let module D = Enclaves.Driver.Improved in
  let sent_app = ref [] in
  let garbage_rng = Prng.Splitmix.create 1L in
  List.iter
    (fun op ->
      (match op with
      | Join i -> D.join d names.(i)
      | Leave i -> D.leave d names.(i)
      | Rekey -> D.rekey d
      | Expel i -> D.expel d names.(i)
      | Notice n ->
          D.dispatch_leader d
            (Leader.broadcast_admin (D.leader d)
               (Wire.Admin.Notice (string_of_int n)))
      | App (i, n) ->
          let body = Printf.sprintf "msg-%d" n in
          if Member.is_connected (D.member d names.(i)) then
            sent_app := (names.(i), body) :: !sent_app;
          D.send_app d names.(i) body
      | Replay_admin k -> (
          let admin_frames =
            List.filter_map
              (fun payload ->
                match F.decode payload with
                | Ok ({ F.label = F.Admin_msg; _ } as f) -> Some (f, payload)
                | Ok _ | Error _ -> None)
              (Netsim.Trace.payloads (Netsim.Network.trace (D.net d)))
          in
          match admin_frames with
          | [] -> ()
          | frames ->
              let f, payload = List.nth frames (k mod List.length frames) in
              Netsim.Network.inject (D.net d) ~dst:f.F.recipient payload)
      | Garbage (i, _) ->
          Netsim.Network.inject (D.net d) ~dst:names.(i)
            (Bytes.unsafe_to_string (Prng.Splitmix.next_bytes garbage_rng 40)));
      ignore (D.run d))
    ops;
  (d, !sent_app)

let prop_prefix ops =
  let d, _ = apply_script ops in
  Enclaves.Driver.Improved.all_prefix_ok d

let prop_leader_consistency ops =
  let d, _ = apply_script ops in
  let module D = Enclaves.Driver.Improved in
  (* Everyone the leader counts as a member has a connected automaton
     holding the leader's current group key. *)
  let l = D.leader d in
  let lead_gk = Leader.group_key l in
  List.for_all
    (fun name ->
      let m = D.member d name in
      Member.is_connected m
      &&
      match (Member.group_key m, lead_gk) with
      | Some a, Some b ->
          a.Types.epoch = b.Types.epoch
          && Sym_crypto.Key.equal a.Types.key b.Types.key
      | _ -> false)
    (Leader.members l)

let prop_app_authentic ops =
  let d, sent = apply_script ops in
  let module D = Enclaves.Driver.Improved in
  (* No member ever logged an app message that was not genuinely sent
     by a connected member (garbage and replays add nothing). *)
  List.for_all
    (fun name ->
      List.for_all
        (fun (author, body) -> List.mem (author, body) sent)
        (Test_util.app_received (D.member d name)))
    (Array.to_list names)

let prop_session_keys_agree ops =
  let d, _ = apply_script ops in
  let module D = Enclaves.Driver.Improved in
  let l = D.leader d in
  List.for_all
    (fun name ->
      match (Member.state (D.member d name), Leader.session l name) with
      | Member.Connected (_, ka), Leader.Connected (_, ka')
      | Member.Connected (_, ka), Leader.Waiting_for_ack (_, ka') ->
          Sym_crypto.Key.equal ka ka'
      | _ -> true)
    (Leader.members l)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"random scenario: prefix property" ~count:60
      script_arb prop_prefix;
    QCheck.Test.make ~name:"random scenario: leader consistency" ~count:60
      script_arb prop_leader_consistency;
    QCheck.Test.make ~name:"random scenario: app authenticity" ~count:60
      script_arb prop_app_authentic;
    QCheck.Test.make ~name:"random scenario: session key agreement" ~count:60
      script_arb prop_session_keys_agree;
  ]

let suite =
  [ ("scenarios (property-based)", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
