(* Crash-recovery suite: leader crash + restart scenarios against the
   durable journal, the RecoveryChallenge re-validation handshake, and
   the view anti-entropy layer. The headline property (the ISSUE's
   acceptance bar): a warm restart restores every
   challenged-and-confirmed session WITHOUT a full re-handshake, cold
   restarts demonstrably pay for re-authentication, and views converge
   within a bounded number of anti-entropy rounds — all byte-for-byte
   reproducible from the seed. *)

open Enclaves
module D = Driver.Improved
module J = Journal

let directory =
  [ ("alice", "pw-a"); ("bob", "pw-b"); ("carol", "pw-c"); ("dave", "pw-d") ]

let n_members = List.length directory

let make ?(seed = 7L) ?(recovery = D.default_recovery) ?plan () =
  let d =
    D.create ~seed ~retry:D.default_retry ~recovery ~leader:"leader"
      ~directory ()
  in
  (match plan with
  | Some p -> Netsim.Network.set_faultplan (D.net d) (Some p)
  | None -> ());
  List.iter (fun (n, _) -> D.join d n) directory;
  d

let audit d =
  Audit.run ~directory ~leader:"leader" (Netsim.Network.trace (D.net d))

let test_warm_recovery () =
  let d = make () in
  D.schedule_leader_crash d ~at:(Netsim.Vtime.of_s 2)
    ~restart_after:(Netsim.Vtime.of_s 1) ();
  ignore (D.run ~until:(Netsim.Vtime.of_s 15) d);
  let r = D.recovery_stats d in
  Alcotest.(check int) "one crash" 1 r.D.leader_crashes;
  Alcotest.(check int) "one warm restart" 1 r.D.warm_restarts;
  Alcotest.(check int) "no cold restart" 0 r.D.cold_restarts;
  Alcotest.(check int) "every session challenged" n_members
    r.D.challenges_sent;
  Alcotest.(check int) "every session recovered" n_members
    (D.sessions_recovered d);
  Alcotest.(check int) "no challenge failed" 0 r.D.challenges_failed;
  Alcotest.(check int) "nobody fell back cold" 0 r.D.cold_reauths;
  Alcotest.(check bool) "views converged" true (D.view_converged d);
  (* The crucial economy: the offline auditor sees exactly one
     completed password handshake per member across the WHOLE trace —
     recovery re-validated the journalled sessions with challenges,
     not with new AuthInitReq/AuthKeyDist exchanges. *)
  Alcotest.(check int) "no re-handshake after the crash" n_members
    (audit d).Audit.handshakes_completed

let test_cold_restart_control () =
  (* Beacons off: this is the watchdog-only baseline the beacon tests
     below compare against. *)
  let d =
    make ~recovery:{ D.default_recovery with D.beacon_on_cold = false } ()
  in
  D.schedule_leader_crash d ~at:(Netsim.Vtime.of_s 2)
    ~restart_after:(Netsim.Vtime.of_s 1) ~warm:false ();
  ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
  let r = D.recovery_stats d in
  Alcotest.(check int) "one cold restart" 1 r.D.cold_restarts;
  Alcotest.(check int) "nothing recovered warm" 0 (D.sessions_recovered d);
  Alcotest.(check int) "everyone re-authenticated" n_members r.D.cold_reauths;
  Alcotest.(check int) "no beacons sent" 0 r.D.cold_beacons_sent;
  Alcotest.(check bool) "views converged anyway" true (D.view_converged d);
  (* The price of cold: a second full handshake per member. *)
  Alcotest.(check int) "handshakes doubled" (2 * n_members)
    (audit d).Audit.handshakes_completed

let test_crash_while_leader_down_drops_frames () =
  let d = make () in
  ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
  Alcotest.(check bool) "converged before crash" true (D.converged d);
  D.crash_leader d;
  Alcotest.(check bool) "down" true (D.leader_down d);
  D.crash_leader d (* idempotent *);
  Alcotest.(check int) "counted once" 1 (D.recovery_stats d).D.leader_crashes;
  (* Members probe a dead leader without wedging the run. *)
  ignore (D.run ~until:(Netsim.Vtime.of_s 8) d);
  Alcotest.(check bool) "probes went out" true
    ((D.recovery_stats d).D.probes_sent > 0);
  ignore (D.restart_leader d);
  ignore (D.run ~until:(Netsim.Vtime.of_s 20) d);
  Alcotest.(check bool) "recovers after a long outage" true
    (D.view_converged d)

let acceptance_plan =
  (* The ISSUE's acceptance scenario: leader crash mid-session PLUS a
     timed partition that cuts two members off across the whole
     challenge window, under background loss. *)
  Netsim.Faultplan.make
    ~default_link:(Netsim.Faultplan.lossy_link 0.05)
    ~partitions:
      [
        {
          Netsim.Faultplan.west = [ "leader" ];
          east = [ "alice"; "bob" ];
          from_ = Netsim.Vtime.of_s 2;
          heal = Netsim.Vtime.of_s 7;
        };
      ]
    ()

let test_acceptance_crash_plus_partition () =
  (* 10 seeds, per the EXPERIMENTS protocol. *)
  List.iter
    (fun seed ->
      let d = make ~seed ~plan:acceptance_plan () in
      D.schedule_leader_crash d ~at:(Netsim.Vtime.of_s 2)
        ~restart_after:(Netsim.Vtime.of_s 1) ();
      ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
      let r = D.recovery_stats d in
      let tag msg = Printf.sprintf "%s (seed %Ld)" msg seed in
      (* carol and dave can answer their challenges; alice and bob are
         cut off past the challenge timeout, so they must come back
         cold via the anti-entropy watchdog. *)
      Alcotest.(check int) (tag "reachable sessions recovered warm") 2
        (D.sessions_recovered d);
      Alcotest.(check int) (tag "partitioned challenges failed") 2
        r.D.challenges_failed;
      Alcotest.(check int) (tag "partitioned members re-authenticated") 2
        r.D.cold_reauths;
      Alcotest.(check bool) (tag "views converged within the bound") true
        (D.view_converged d))
    (List.init 10 (fun i -> Int64.of_int (i + 1)))

let test_deterministic_replay () =
  let run () =
    let d = make ~seed:99L ~plan:acceptance_plan () in
    D.schedule_leader_crash d ~at:(Netsim.Vtime.of_s 2)
      ~restart_after:(Netsim.Vtime.of_s 1) ();
    ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
    d
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical traces" true
    (Netsim.Trace.entries (Netsim.Network.trace (D.net a))
    = Netsim.Trace.entries (Netsim.Network.trace (D.net b)));
  Alcotest.(check (list (pair string int))) "identical recovery counters"
    (D.recovery_counters a) (D.recovery_counters b);
  Alcotest.(check (list (pair string int))) "identical retry counters"
    (D.retry_counters a) (D.retry_counters b);
  Alcotest.(check bool) "identical journal bytes" true
    (D.journal_bytes a = D.journal_bytes b)

let test_truncated_journal_partial_recovery () =
  (* Damage the journal before the restart: keep only the records up
     to (excluding) the LAST session establishment, plus 3 stray bytes
     of the next record. Replay must recover exactly the prefix; the
     restarted leader warm-recovers the journalled sessions and the
     dropped member comes back through the watchdog's cold path. *)
  let d = make () in
  ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
  D.crash_leader d;
  let bytes = Option.get (D.journal_bytes d) in
  let all, status = J.replay bytes in
  Alcotest.(check bool) "journal clean before damage" true (status = J.Clean);
  let last_est =
    let rec go i best = function
      | [] -> best
      | J.Session_established _ :: tl -> go (i + 1) i tl
      | _ :: tl -> go (i + 1) best tl
    in
    go 0 (-1) all
  in
  Alcotest.(check bool) "several establishments journalled" true (last_est > 0);
  let prefix = List.filteri (fun i _ -> i < last_est) all in
  (* Re-encoding the prefix reproduces the original byte boundary
     (same records, same seqs), so cutting 3 bytes past it lands
     mid-record. *)
  let boundary =
    let j = J.create ~compact_every:10_000 () in
    List.iter (J.append j) prefix;
    String.length (J.contents j)
  in
  let damaged = String.sub bytes 0 (boundary + 3) in
  (match D.restart_leader ~journal_bytes:damaged d with
  | J.Damaged { valid_records; _ } ->
      Alcotest.(check int) "replay stopped at the cut" last_est valid_records
  | J.Clean -> Alcotest.fail "damage went unnoticed");
  ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
  let surviving = List.length (J.state_of_records prefix).J.sessions in
  Alcotest.(check int) "journalled sessions recovered warm" surviving
    (D.sessions_recovered d);
  Alcotest.(check int) "dropped members came back cold"
    (n_members - surviving)
    (D.recovery_stats d).D.cold_reauths;
  Alcotest.(check bool) "views converged" true (D.view_converged d)

(* --- cold-restart beacons (§ storage/beacon PR) --- *)

(* Step the simulation in 0.5 s increments and return the first time
   (in seconds) at which [view_converged] holds, or [max_s] if it never
   does. *)
let converge_time d ~from_s ~max_s =
  let rec go t =
    if t > max_s then max_s
    else begin
      ignore (D.run ~until:(Netsim.Vtime.of_ms (int_of_float (t *. 1000.))) d);
      if D.view_converged d then t else go (t +. 0.5)
    end
  in
  go from_s

let test_beacon_beats_watchdog () =
  (* Same cold crash, two arms: beacons on (default) vs watchdog-only.
     The beacon arm must re-converge strictly — and substantially —
     earlier, with every member arriving via the beacon shortcut. *)
  let crash_s = 2.0 and restart_s = 1.0 in
  let arm recovery =
    let d = make ~recovery () in
    D.schedule_leader_crash d ~at:(Netsim.Vtime.of_s 2)
      ~restart_after:(Netsim.Vtime.of_s 1) ~warm:false ();
    let t = converge_time d ~from_s:(crash_s +. restart_s) ~max_s:30.0 in
    (d, t)
  in
  let beacon_d, beacon_t = arm D.default_recovery in
  let control_d, control_t =
    arm { D.default_recovery with D.beacon_on_cold = false }
  in
  let br = D.recovery_stats beacon_d and cr = D.recovery_stats control_d in
  Alcotest.(check int) "beacons broadcast to every member" n_members
    br.D.cold_beacons_sent;
  Alcotest.(check int) "everyone rejoined via the beacon" n_members
    br.D.beacon_reauths;
  Alcotest.(check int) "nobody waited out the watchdog" 0 br.D.cold_reauths;
  Alcotest.(check int) "control: everyone via the watchdog" n_members
    cr.D.cold_reauths;
  Alcotest.(check int) "control: no beacon rejoins" 0 cr.D.beacon_reauths;
  (* The latency claim (E19): the watchdog path cannot beat
     [reset_after] past the last beacon, while the beacon path needs
     only a few RTTs after the restart. *)
  let reset_after_s =
    Netsim.Vtime.to_float_ms D.default_recovery.D.reset_after /. 1000.
  in
  Alcotest.(check bool)
    (Printf.sprintf "beacon (%.1fs) well before watchdog floor" beacon_t)
    true
    (beacon_t < crash_s +. reset_after_s);
  Alcotest.(check bool)
    (Printf.sprintf "beacon (%.1fs) faster than control (%.1fs)" beacon_t
       control_t)
    true
    (beacon_t < control_t);
  Alcotest.(check bool)
    (Printf.sprintf "control (%.1fs) paid the watchdog" control_t)
    true
    (control_t >= reset_after_s)

(* Forgery/replay resistance: a beacon alone must reset nothing. These
   drive the automata directly (synchronous router), modelling an
   attacker who can replay or forge ColdRestart traffic. *)

let forgery_cluster () =
  let rng = Prng.Splitmix.create 42L in
  let leader = Leader.create ~self:"leader" ~rng ~directory () in
  let members =
    List.map
      (fun (name, password) ->
        (name, Member.create ~self:name ~leader:"leader" ~password ~rng))
      directory
  in
  let router = Test_util.improved_router leader members in
  List.iter (fun (_, m) -> Test_util.route router (Member.join m)) members;
  let alice = List.assoc "alice" members in
  let _ = Member.drain_events alice in
  (leader, router, alice, rng)

let seal_beacon ~rng ~key ~epoch ~nb =
  let plaintext =
    Wire.Payload.encode_cold_restart { Wire.Payload.l = "leader"; a = "alice"; epoch; nb }
  in
  Sealed_channel.seal ~rng ~key ~label:Wire.Frame.Cold_restart ~sender:"leader"
    ~recipient:"alice" plaintext

let member_epoch m =
  match Member.group_key m with Some { Types.epoch; _ } -> epoch | None -> 0

let test_beacon_wrong_key_rejected () =
  let _, _, alice, rng = forgery_cluster () in
  let wrong = Sym_crypto.Key.long_term ~user:"alice" ~password:"WRONG" in
  let frame =
    seal_beacon ~rng ~key:wrong ~epoch:(member_epoch alice)
      ~nb:(Wire.Nonce.fresh rng)
  in
  let replies = Member.receive alice (Wire.Frame.encode frame) in
  Alcotest.(check int) "no challenge for a bad MAC" 0 (List.length replies);
  Alcotest.(check bool) "rejected" true (Test_util.has_reject_member alice);
  Alcotest.(check bool) "still connected" true (Member.is_connected alice);
  Alcotest.(check int) "no reset" 0 (Member.counters alice).Member.beacon_reauths

let test_beacon_stale_epoch_rejected () =
  let _, _, alice, rng = forgery_cluster () in
  let pa = Sym_crypto.Key.long_term ~user:"alice" ~password:"pw-a" in
  (* Correctly sealed, but claiming an epoch BEHIND alice's group key:
     a beacon replayed from an older incarnation. *)
  let frame =
    seal_beacon ~rng ~key:pa ~epoch:(member_epoch alice - 1)
      ~nb:(Wire.Nonce.fresh rng)
  in
  let replies = Member.receive alice (Wire.Frame.encode frame) in
  Alcotest.(check int) "no challenge for a stale epoch" 0 (List.length replies);
  let stale =
    List.exists
      (function
        | Member.Rejected { reason = Types.Stale_epoch _; _ } -> true
        | _ -> false)
      (Member.drain_events alice)
  in
  Alcotest.(check bool) "rejected as stale epoch" true stale;
  Alcotest.(check bool) "still connected" true (Member.is_connected alice)

let test_replayed_beacon_does_not_reset_live_session () =
  (* The strongest replay: a byte-valid beacon (attacker even knows
     P_a) reaches a member whose leader is alive and was never cold.
     The member answers with a liveness challenge — and that is ALL
     that happens: the live leader refuses to ack, so the session
     survives. *)
  let leader, _, alice, rng = forgery_cluster () in
  let pa = Sym_crypto.Key.long_term ~user:"alice" ~password:"pw-a" in
  let frame =
    seal_beacon ~rng ~key:pa ~epoch:(member_epoch alice)
      ~nb:(Wire.Nonce.fresh rng)
  in
  let replies = Member.receive alice (Wire.Frame.encode frame) in
  Alcotest.(check int) "exactly one liveness challenge" 1 (List.length replies);
  let challenged =
    List.exists
      (function Member.Cold_beacon_challenged _ -> true | _ -> false)
      (Member.drain_events alice)
  in
  Alcotest.(check bool) "challenge event" true challenged;
  (* Deliver the challenge to the LIVE leader: it was not built by
     cold_recover, so it answers no beacon challenges. *)
  let acks =
    List.concat_map
      (fun f -> Leader.receive leader (Wire.Frame.encode f))
      replies
  in
  Alcotest.(check int) "live leader sends no ack" 0 (List.length acks);
  Alcotest.(check bool) "leader rejected the challenge" true
    (Test_util.has_reject_leader leader);
  Alcotest.(check bool) "alice still connected" true (Member.is_connected alice);
  Alcotest.(check int) "alice never reset" 0
    (Member.counters alice).Member.beacon_reauths;
  (* A forged ack with the wrong echo nonce cannot finish the job
     either. *)
  let bad_ack =
    let plaintext =
      Wire.Payload.encode_cold_restart_ack
        { Wire.Payload.l = "leader"; a = "alice"; echo = Wire.Nonce.fresh rng }
    in
    Sealed_channel.seal ~rng ~key:pa ~label:Wire.Frame.Cold_restart_ack
      ~sender:"leader" ~recipient:"alice" plaintext
  in
  let replies = Member.receive alice (Wire.Frame.encode bad_ack) in
  Alcotest.(check int) "stale ack moves nothing" 0 (List.length replies);
  let stale =
    List.exists
      (function
        | Member.Rejected { reason = Types.Stale_nonce; _ } -> true | _ -> false)
      (Member.drain_events alice)
  in
  Alcotest.(check bool) "rejected as stale nonce" true stale;
  Alcotest.(check bool) "alice STILL connected" true (Member.is_connected alice)

let test_no_recovery_layer_unchanged () =
  (* Without [~recovery] the driver must not journal, beacon, or
     watchdog: PR-2 behaviour exactly. *)
  let d = D.create ~seed:5L ~retry:D.default_retry ~leader:"leader" ~directory () in
  List.iter (fun (n, _) -> D.join d n) directory;
  ignore (D.run ~until:(Netsim.Vtime.of_s 10) d);
  Alcotest.(check bool) "no journal" true (D.journal_bytes d = None);
  Alcotest.(check int) "no beacons"
    0 (D.recovery_stats d).D.digests_broadcast;
  Alcotest.(check bool) "converged" true (D.converged d)

let test_recovery_without_retry () =
  (* The recovery layer keeps its timers with the retry layer off: the
     two members cut off across the challenge window are re-challenged
     and, at the deadline, given up on, while no handshake or admin
     frame is ever re-sent. *)
  let d =
    D.create ~seed:3L ~recovery:D.default_recovery ~leader:"leader" ~directory
      ()
  in
  Netsim.Network.set_faultplan (D.net d)
    (Some
       (Netsim.Faultplan.make
          ~partitions:
            [
              {
                Netsim.Faultplan.west = [ "leader" ];
                east = [ "alice"; "bob" ];
                from_ = Netsim.Vtime.of_s 2;
                heal = Netsim.Vtime.of_s 7;
              };
            ]
          ()));
  List.iter (fun (n, _) -> D.join d n) directory;
  D.schedule_leader_crash d ~at:(Netsim.Vtime.of_s 2)
    ~restart_after:(Netsim.Vtime.of_s 1) ();
  ignore (D.run ~until:(Netsim.Vtime.of_s 8) d);
  let r = D.recovery_stats d and rt = D.retry_stats d in
  Alcotest.(check int) "reachable sessions recovered warm" 2
    (D.sessions_recovered d);
  Alcotest.(check bool) "unanswered challenges re-sent" true
    (r.D.challenge_retransmits > 0);
  Alcotest.(check int) "partitioned challenges failed" 2 r.D.challenges_failed;
  Alcotest.(check (list int))
    "nothing else re-sent or collected" [ 0; 0; 0; 0; 0 ]
    [
      rt.D.handshake_retransmits;
      rt.D.keydist_retransmits;
      rt.D.admin_retransmits;
      rt.D.half_open_gcs;
      rt.D.session_resets;
    ]

let test_counters_banked_once () =
  (* Each leader incarnation's counters are banked exactly once, when
     a restart replaces it: a crash must not count the dead incarnation
     a second time, and a crash-free restart must not forget the one it
     replaced. *)
  let d = make ~seed:5L () in
  D.schedule_leader_crash d ~at:(Netsim.Vtime.of_s 2)
    ~restart_after:(Netsim.Vtime.of_s 1) ();
  ignore (D.run ~until:(Netsim.Vtime.of_s 15) d);
  Alcotest.(check int) "every session recovered" n_members
    (D.sessions_recovered d);
  let sums () =
    let c = D.recovery_counters d in
    ( D.sessions_recovered d,
      List.assoc "sessions_recovered" c,
      List.assoc "resyncs_served" c )
  in
  let before = sums () in
  D.crash_leader d;
  Alcotest.(check (triple int int int)) "a crash changes no sum" before (sums ());
  ignore (D.restart_leader d);
  ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
  let s0, c0, r0 = sums () in
  ignore (D.restart_leader d);
  let s1, c1, r1 = sums () in
  Alcotest.(check bool) "a crash-free restart lowers no sum" true
    (s1 >= s0 && c1 >= c0 && r1 >= r0)

let test_restart_needs_recovery () =
  (* Without [~recovery] there is no journal to come back from. *)
  let d = D.create ~seed:5L ~leader:"leader" ~directory () in
  D.crash_leader d;
  match D.restart_leader d with
  | _ -> Alcotest.fail "restarted a leader without a journal"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ( "recovery",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        [
          ("warm recovery, no re-handshake", test_warm_recovery);
          ("cold restart pays re-auth", test_cold_restart_control);
          ("long outage then restart", test_crash_while_leader_down_drops_frames);
          ("acceptance: crash + partition, 10 seeds", test_acceptance_crash_plus_partition);
          ("deterministic from seed", test_deterministic_replay);
          ("truncated journal: partial warm recovery", test_truncated_journal_partial_recovery);
          ("beacon cold restart beats the watchdog", test_beacon_beats_watchdog);
          ("forged beacon MAC rejected", test_beacon_wrong_key_rejected);
          ("stale-epoch beacon rejected", test_beacon_stale_epoch_rejected);
          ("replayed beacon cannot reset a live session",
           test_replayed_beacon_does_not_reset_live_session);
          ("recovery off: PR-2 behaviour", test_no_recovery_layer_unchanged);
          ("recovery without retry gives up on challenges",
           test_recovery_without_retry);
          ("counters banked once per incarnation", test_counters_banked_once);
          ("restart without recovery rejected", test_restart_needs_recovery);
        ] );
  ]
