(* Command-line interface to the Enclaves reproduction.

   Subcommands:
   - [session]  run a scripted group session and print the trace
   - [attack]   run the §2.3 attack matrix (optionally one attack)
   - [verify]   run the model checker (§4-§5)
   - [chaos]    sweep seeded fault plans against the recovery layer
   - [churn]    soak the store-and-forward delivery queues under member churn
   - [failover] kill the primary of a multi-manager group and report
                warm/cold promotion, replication counters and lag
   - [intrude]  run a seeded insider or wire-framing campaign against the
                online sentinel
   - [calibrate] sweep sentinel tuning points over every campaign arm and
                a clean control, and print the detection frontier
   - [nemesis]  run the omni-fault soak (network + disk + insider + crash)
                against the degraded-mode ladder
   - [crash-matrix] enumerate every journal crash point and check recovery
   - [keys]     derive and fingerprint a long-term key (debug helper)

   Run with: dune exec bin/enclaves_cli.exe -- <subcommand> --help *)

open Cmdliner
module D = Enclaves.Driver.Improved
module S = Enclaves.Sentinel

(* --- minimal JSON emission (no dependency; the sweeps' numbers are
   ints, floats, bools and flat counter tables) --- *)

module Json = struct
  type t =
    | Str of string
    | Int of int
    | Float of float
    | Bool of bool
    | Obj of (string * t) list
    | Arr of t list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec render = function
    | Str s -> "\"" ^ escape s ^ "\""
    | Int n -> string_of_int n
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Printf.sprintf "%.1f" f
        else Printf.sprintf "%g" f
    | Bool b -> string_of_bool b
    | Obj fields ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ render v) fields)
        ^ "}"
    | Arr items -> "[" ^ String.concat "," (List.map render items) ^ "]"

  let counters named = Obj (List.map (fun (k, v) -> (k, Int v)) named)
  let print j = print_endline (render j)
end

(* --- shared sweep plumbing --- *)

(* The honest directory: user0 .. user<n-1>, each with the password
   "<name>-pw". *)
let users n =
  List.init n (fun i ->
      let name = Printf.sprintf "user%d" i in
      (name, name ^ "-pw"))

(* [n] consecutive seeds from [first] up. *)
let seeds_from first n = List.init n (fun i -> Int64.add first (Int64.of_int i))

(* Reject flags that parse but make a trivial or meaningless run, such
   as a crash with no restart: say why on stderr and exit 2. *)
let usage command msg =
  prerr_endline (command ^ ": " ^ msg);
  exit 2

(* Whether [d]'s sentinel holds [peer] at quarantine or beyond (never,
   when no sentinel runs). *)
let quarantined d peer =
  match D.sentinel d with
  | Some sn -> S.level_rank (S.level sn peer) >= S.level_rank S.Quarantined
  | None -> false

(* A sweep's JSON document: the command, its parameters, one row per
   seed, and the summary. *)
let print_sweep command params runs summary =
  Json.print
    (Json.Obj
       ((("command", Json.Str command) :: params)
       @ [ ("runs", Json.Arr runs); ("summary", Json.Obj summary) ]))

(* Run [one] on every seed of a convergence sweep, then report the JSON
   document or the text tally "ok/n seeds <outcome>". Exits 0 iff every
   seed converged. *)
let converge_sweep ~json command params outcome seeds one =
  let results = List.map one seeds in
  let ok = List.length (List.filter fst results) and n = List.length seeds in
  if json then
    print_sweep command params (List.map snd results)
      [ ("converged", Json.Int ok); ("seeds", Json.Int n) ]
  else Printf.printf "\n%d/%d seeds %s\n" ok n outcome;
  if ok = n then 0 else 1

(* --- shared flags --- *)

(* Counts and probabilities are checked as they are parsed, so a bad
   value is a usage error (exit 124) rather than a sweep that passes on
   zero seeds or an [Invalid_argument] deep inside a run. *)
let checked conv valid expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when valid v -> Ok v
    | Ok _ ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = checked Arg.int (fun n -> n > 0) "a positive integer"

let probability =
  checked Arg.float (fun p -> p >= 0.0 && p <= 1.0) "a probability in [0,1]"

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit one machine-readable JSON document on stdout instead of the \
           human-readable per-seed report")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the network trace")

let seed_arg ?(doc = "Simulation seed") default =
  Arg.(value & opt int64 default & info [ "seed" ] ~doc)

let members_arg ?(doc = "Number of members") ?(kind = positive) default =
  Arg.(value & opt kind default & info [ "members"; "n" ] ~doc)

let seeds_arg ?(doc = "Sweep seeds 1..N") default =
  Arg.(value & opt positive default & info [ "seeds" ] ~doc)

let until_arg default =
  Arg.(
    value & opt int default
    & info [ "until" ] ~doc:"Virtual-time bound in seconds per run")

let prob_arg name ~doc default =
  Arg.(value & opt probability default & info [ name ] ~doc)

let loss_arg ?(doc = "Per-frame loss probability") default =
  prob_arg "loss" ~doc default

let duplicate_arg ?(doc = "Per-frame duplication probability") default =
  prob_arg "duplicate" ~doc default

let cold_arg doc = Arg.(value & flag & info [ "cold" ] ~doc)

(* The sentinel's tuning profiles, shared by chaos / intrude / calibrate /
   nemesis. [no-attribution] is kept as the framing baseline. *)
let sentinel_profiles =
  let d = S.default_config in
  [
    ("default", d);
    ("no-attribution", { d with S.attribution = false });
    ("strict", { d with S.quarantine_at = 15.0; expel_at = 40.0 });
    ( "lenient",
      { d with S.quarantine_at = 40.0; expel_at = 90.0; wire_discount = 0.1 }
    );
  ]

let sentinel_profile_arg =
  Arg.(
    value
    & opt (enum sentinel_profiles) S.default_config
    & info [ "sentinel-profile" ] ~docv:"PROFILE"
        ~doc:
          ("Sentinel tuning profile: " ^ doc_alts_enum sentinel_profiles
         ^ ". $(b,no-attribution) scores every frame at full weight against \
            its claimed sender, as the sentinel did before path attribution"
          ))

(* --- session --- *)

let run_session members seed verbose audit protocol =
  let directory = users members in
  let print_trace net =
    print_endline "";
    List.iter
      (fun e -> Format.printf "%a@." Netsim.Trace.pp_entry e)
      (Netsim.Trace.entries (Netsim.Network.trace net))
  in
  (match protocol with
  | `Improved ->
      let d = D.create ~seed ~leader:"leader" ~directory () in
      List.iter
        (fun (name, _) ->
          D.join d name;
          ignore (D.run d))
        directory;
      D.send_app d "user0" "hello from the CLI";
      ignore (D.run d);
      D.rekey d;
      ignore (D.run d);
      Printf.printf "leader members: [%s]\n"
        (String.concat ", " (Enclaves.Leader.members (D.leader d)));
      List.iter
        (fun (name, _) ->
          let m = D.member d name in
          Printf.printf "  %-8s connected=%b admin-log=%d app-log=%d\n" name
            (Enclaves.Member.is_connected m)
            (List.length (Enclaves.Member.accepted_admin m))
            (List.length
               (List.filter
                  (function Enclaves.Member.App_received _ -> true | _ -> false)
                  (Enclaves.Member.drain_events m))))
        directory;
      Printf.printf "ordering guarantee holds: %b\n" (D.all_prefix_ok d);
      if audit then begin
        let report =
          Enclaves.Audit.run ~directory ~leader:"leader"
            (Netsim.Network.trace (D.net d))
        in
        Printf.printf
          "audit: %d handshakes, %d admin deliveries, %d closes, %d anomalies\n"
          report.Enclaves.Audit.handshakes_completed
          report.Enclaves.Audit.admin_delivered report.Enclaves.Audit.closes
          (List.length report.Enclaves.Audit.anomalies);
        List.iter
          (fun a -> Format.printf "  anomaly: %a@." Enclaves.Audit.pp_anomaly a)
          report.Enclaves.Audit.anomalies
      end;
      if verbose then print_trace (D.net d)
  | `Legacy ->
      let module D = Enclaves.Driver.Legacy in
      let d = D.create ~seed ~leader:"leader" ~directory () in
      List.iter
        (fun (name, _) ->
          D.join d name;
          ignore (D.run d))
        directory;
      D.send_app d "user0" "hello from the CLI";
      ignore (D.run d);
      Printf.printf "leader members: [%s]\n"
        (String.concat ", " (Enclaves.Legacy_leader.members (D.leader d)));
      if verbose then print_trace (D.net d));
  0

let protocol_conv = Arg.enum [ ("improved", `Improved); ("legacy", `Legacy) ]

let protocol_arg =
  Arg.(
    value & opt protocol_conv `Improved
    & info [ "protocol" ] ~doc:"improved or legacy")

let audit_arg =
  Arg.(value & flag & info [ "audit" ] ~doc:"Audit the trace afterwards")

let session_cmd =
  let doc = "run a scripted group session over the simulated network" in
  Cmd.v
    (Cmd.info "session" ~doc)
    Term.(
      const run_session $ members_arg 3 $ seed_arg 42L $ verbose_arg
      $ audit_arg $ protocol_arg)

(* --- attack --- *)

let run_attack which seed =
  let open Adversary.Attacks in
  let both (attack : ?seed:int64 -> protocol -> outcome) =
    [ attack ~seed Legacy; attack ~seed Improved ]
  in
  let runs =
    match which with
    | `All -> all ~seed ()
    | `A1 -> both denial_of_service
    | `A2 -> both forge_mem_removed
    | `A3 -> both rekey_replay
    | `A4 -> both forced_disconnect
  in
  List.iter (fun o -> Format.printf "%a@." pp_outcome o) runs;
  let expected = List.for_all as_expected runs in
  Printf.printf "\nmatches the paper's matrix: %b\n" expected;
  if expected then 0 else 1

let which_arg =
  let attacks =
    [ ("a1", `A1); ("a2", `A2); ("a3", `A3); ("a4", `A4); ("all", `All) ]
  in
  Arg.(
    value
    & pos 0 (enum attacks) `All
    & info [] ~docv:"ATTACK"
        ~doc:("The attack to run: " ^ doc_alts_enum attacks))

let attack_cmd =
  let doc = "run the insider attacks of paper §2.3 against both protocols" in
  Cmd.v (Cmd.info "attack" ~doc)
    Term.(const run_attack $ which_arg $ seed_arg 42L)

(* --- verify --- *)

(* One bounded model: explore it (timed), print its reports, and
   return them. *)
let verify_plane title explore state_count edge_count reports =
  Printf.printf "\n-- %s --\n" title;
  let t0 = Unix.gettimeofday () in
  let r = explore () in
  Printf.printf "explored %d states / %d transitions in %.2fs\n"
    (state_count r) (edge_count r)
    (Unix.gettimeofday () -. t0);
  let reps = reports r in
  List.iter
    (fun rep -> Format.printf "%a@." Symbolic.Invariants.pp_report rep)
    reps;
  reps

let run_verify joins admin nonces keys legacy jobs max_states =
  let open Symbolic in
  let config =
    {
      Model.default_config with
      Model.max_joins = joins;
      max_admin = admin;
      max_nonces = nonces;
      max_keys = keys;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Explore.run ~config ~jobs ~max_states () in
  let dropped = r.Explore.frontier_dropped in
  Printf.printf "explored %d states / %d transitions in %.2fs%s\n\n"
    (Explore.state_count r) (Explore.edge_count r)
    (Unix.gettimeofday () -. t0)
    (if dropped > 0 then Printf.sprintf " (TRUNCATED, %d dropped)" dropped
     else "");
  let improved =
    Invariants.all ~config r @ Properties.all r @ Diagram.all ~config r
  in
  List.iter (fun rep -> Format.printf "%a@." Invariants.pp_report rep) improved;
  print_string "diagram boxes:";
  List.iter (fun (box, n) -> Printf.printf " %s %d" box n)
    (Diagram.visit_counts r);
  print_newline ();
  let recovery =
    verify_plane "recovery plane (replication / demotion)" Recovery.explore
      Recovery.state_count Recovery.edge_count Recovery.reports
  in
  let delivery =
    verify_plane "delivery plane (store-and-forward / epoch window)"
      Delivery_model.explore Delivery_model.state_count
      Delivery_model.edge_count Delivery_model.reports
  in
  let sentinel =
    verify_plane "sentinel plane (attribution / containment ladder)"
      Sentinel_model.explore Sentinel_model.state_count
      Sentinel_model.edge_count Sentinel_model.reports
  in
  let reports = improved @ recovery @ delivery @ sentinel in
  let legacy_ok =
    if not legacy then true
    else begin
      print_endline "\n-- legacy protocol (§2.2): attack finding --";
      let lr = Legacy_model.explore () in
      Printf.printf "explored %d states\n" (Legacy_model.state_count lr);
      let findings = Legacy_model.findings lr in
      List.iter
        (fun f ->
          Printf.printf "%-10s %-14s %s\n" f.Legacy_model.weakness
            (if f.Legacy_model.violated then "ATTACK FOUND" else "holds")
            f.Legacy_model.description;
          List.iter (fun line -> Printf.printf "    %s\n" line)
            f.Legacy_model.trace)
        findings;
      List.for_all Legacy_model.as_expected findings
    end
  in
  let vacuous =
    List.filter_map
      (fun rep -> if rep.Invariants.checked = 0 then Some rep.name else None)
      reports
  in
  if dropped > 0 then begin
    (* A capped search saw part of the graph: its HOLDS lines speak for
       the states it reached, not for the bounded model. *)
    print_endline
      "\nTRUNCATED: the §4 model was not explored exhaustively, so this \
       is not a verification";
    1
  end
  else if vacuous <> [] then begin
    (* An obligation that examined no state or edge holds of nothing. *)
    Printf.printf "\nVACUOUS: %s checked nothing at these bounds\n"
      (String.concat ", " vacuous);
    1
  end
  else if List.for_all (fun rep -> rep.Invariants.holds) reports && legacy_ok
  then begin
    print_endline "\nall §5 results verified";
    0
  end
  else begin
    print_endline "\nUNEXPECTED OUTCOME";
    1
  end

let non_negative = checked Arg.int (fun n -> n >= 0) "a non-negative integer"

let bound_arg name ~doc default =
  Arg.(value & opt non_negative default & info [ name ] ~doc)

let joins_arg = bound_arg "joins" ~doc:"Max joins by A" 2
let admin_arg = bound_arg "admin" ~doc:"Max admin msgs/session" 2
let nonces_arg = bound_arg "nonces" ~doc:"Nonce pool size" 10
let keys_arg = bound_arg "keys" ~doc:"Session-key pool size" 2

let legacy_arg =
  Arg.(
    value & flag
    & info [ "legacy" ]
        ~doc:"Also explore the legacy protocol and print the attacks found")

let jobs_arg =
  Arg.(
    value & opt positive 1
    & info [ "jobs"; "j" ]
        ~doc:"Domains used to expand the frontier (results are identical \
              for any value)")

let max_states_arg =
  Arg.(
    value & opt positive 200_000
    & info [ "max-states" ]
        ~doc:"State cap; runs that hit it are reported as truncated and exit 1")

let verify_cmd =
  let doc = "exhaustively verify the improved protocol (paper §4-§5)" in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const run_verify $ joins_arg $ admin_arg $ nonces_arg $ keys_arg
      $ legacy_arg $ jobs_arg $ max_states_arg)

(* --- chaos --- *)

let run_chaos members seeds loss corrupt duplicate spike_prob until_s no_retry
    crash_at restart_after cold torn short_write drop_fsync eio intrusion
    sn_config json verbose =
  let crashing = crash_at > 0.0 in
  (* Flag validation: a crash with no restart would leave the leader
     down for the rest of the run and every seed would "wedge" for a
     trivial reason — reject the combination loudly instead. *)
  if crashing && restart_after = None then
    usage "chaos"
      "--crash-at requires --restart-after (a crashed leader that never \
       restarts cannot converge; give --restart-after SECONDS)";
  let restart_after = Option.value ~default:2.0 restart_after in
  let faulty_disk =
    torn > 0.0 || short_write > 0.0 || drop_fsync > 0.0 || eio > 0.0
  in
  if faulty_disk && not crashing then
    usage "chaos"
      "storage faults (--torn/--short-write/--drop-fsync/--eio) only bite \
       the journal's disk; enable journalling with --crash-at SECONDS";
  let directory = users members in
  let plan =
    Netsim.Faultplan.make
      ~default_link:
        (Netsim.Faultplan.lossy_link ~corrupt ~duplicate ~spike_prob loss)
      ()
  in
  let bound = Netsim.Vtime.of_s until_s in
  let one seed =
    let retry = if no_retry then None else Some D.default_retry in
    let recovery = if crashing then Some D.default_recovery else None in
    let storage_faults =
      if faulty_disk then
        Some
          {
            Store.Fault.none with
            Store.Fault.torn_write = torn;
            short_write;
            drop_fsync;
            eio;
          }
      else None
    in
    let d =
      D.create ~seed ?retry ?recovery ?storage_faults
        ?intrusion:(if intrusion then Some sn_config else None)
        ~leader:"leader" ~directory ()
    in
    Netsim.Network.set_faultplan (D.net d) (Some plan);
    List.iter (fun (n, _) -> D.join d n) directory;
    if crashing then
      D.schedule_leader_crash d
        ~at:(Int64.of_float (crash_at *. 1e6))
        ~restart_after:(Int64.of_float (restart_after *. 1e6))
        ~warm:(not cold) ();
    ignore (D.run ~until:bound d);
    (* With anti-entropy on, convergence additionally requires view
       agreement — that is what the digests are for. *)
    let converged = if crashing then D.view_converged d else D.converged d in
    let join_time =
      (* Virtual time by which every member held the current epoch —
         read off the trace as the last delivery before quiescence
         when converged; the bound otherwise. *)
      if converged then
        List.fold_left
          (fun acc e ->
            match e with
            | Netsim.Trace.Delivered { time; _ } when time > acc -> time
            | _ -> acc)
          Netsim.Vtime.zero
          (Netsim.Trace.entries (Netsim.Network.trace (D.net d)))
      else bound
    in
    let r = D.retry_stats d in
    let c = Netsim.Network.fault_counters (D.net d) in
    let stats = Netsim.Stats.compute (Netsim.Network.trace (D.net d)) in
    (* With the sentinel riding along, fault-plan damage (loss,
       corruption, duplicates) must never read as an intrusion: a
       clean-chaos run that quarantines an honest member is a false
       positive and fails the seed. *)
    let false_positives =
      List.map fst (List.filter (fun (n, _) -> quarantined d n) directory)
    in
    if not json then begin
      Printf.printf
        "seed=%-3Ld %-9s t=%8.3fs  rtx: hs=%-3d keydist=%-3d admin=%-3d gc=%d \
         resets=%d\n"
        seed
        (if converged then "CONVERGED" else "WEDGED")
        (Int64.to_float join_time /. 1e6)
        r.D.handshake_retransmits r.D.keydist_retransmits
        r.D.admin_retransmits r.D.half_open_gcs r.D.session_resets;
      if crashing then begin
        Format.printf "         recovery: %a@." Netsim.Stats.pp_named
          (D.recovery_counters d);
        Format.printf "         storage:  %a@." Netsim.Stats.pp_named
          (D.storage_counters d)
      end;
      if false_positives <> [] then
        Printf.printf "         FALSE POSITIVE: quarantined %s\n"
          (String.concat ", " false_positives);
      if intrusion && verbose then
        Format.printf "         sentinel: %a@." Netsim.Stats.pp_named
          (D.sentinel_counters d);
      if verbose then begin
        Format.printf "         retry: %a@." Netsim.Stats.pp_named
          (D.retry_counters d);
        Format.printf "         faults: %a@." Netsim.Faultplan.pp_counters c;
        Printf.printf "         drops: total=%d adv=%d unreg=%d fault=%d\n"
          stats.Netsim.Stats.dropped stats.Netsim.Stats.dropped_by_adversary
          stats.Netsim.Stats.dropped_unregistered
          stats.Netsim.Stats.dropped_by_fault;
        Format.printf "         wire: %a@." Netsim.Stats.pp stats
      end
    end;
    let row =
      Json.Obj
        ([
           ("seed", Json.Int (Int64.to_int seed));
           ("converged", Json.Bool converged);
           ("t_s", Json.Float (Int64.to_float join_time /. 1e6));
           ("retry", Json.counters (D.retry_counters d));
         ]
        @ (if crashing then
             [
               ("recovery", Json.counters (D.recovery_counters d));
               ("storage", Json.counters (D.storage_counters d));
             ]
           else [])
        @
        if intrusion then
          [
            ( "false_positives",
              Json.Arr (List.map (fun n -> Json.Str n) false_positives) );
            ("sentinel", Json.counters (D.sentinel_counters d));
          ]
        else [])
    in
    (converged && false_positives = [], row)
  in
  if not json then
    Printf.printf
      "chaos: %d members, loss=%.0f%% corrupt=%.0f%% dup=%.0f%% spikes=%.0f%% \
       retry=%b bound=%ds%s\n"
      members (100. *. loss) (100. *. corrupt) (100. *. duplicate)
      (100. *. spike_prob) (not no_retry) until_s
      (if crashing then
         Printf.sprintf " crash@%.1fs restart+%.1fs (%s)" crash_at
           restart_after
           (if cold then "cold" else "warm")
       else "");
  converge_sweep ~json "chaos"
    [
      ("members", Json.Int members);
      ("loss", Json.Float loss);
      ("corrupt", Json.Float corrupt);
      ("duplicate", Json.Float duplicate);
      ("spikes", Json.Float spike_prob);
      ("retry", Json.Bool (not no_retry));
    ]
    "converged" (seeds_from 1L seeds) one

let no_retry_arg =
  Arg.(
    value & flag
    & info [ "no-retry" ]
        ~doc:"Disable the recovery layer (control runs; expect wedges)")

let crash_at_arg =
  Arg.(
    value & opt float 0.0
    & info [ "crash-at" ]
        ~doc:
          "Crash the leader at this virtual time (seconds); 0 disables. \
           Enables journalling and view anti-entropy.")

let restart_after_arg =
  Arg.(
    value & opt (some float) None
    & info [ "restart-after" ]
        ~doc:
          "Restart the leader this long after the crash (seconds). \
           Required whenever --crash-at is given.")

let torn_fault_arg =
  prob_arg "torn" 0.0
    ~doc:
      "Per-write probability that only a byte-prefix of a journal write \
       silently lands on disk (requires --crash-at)"

let short_write_arg =
  prob_arg "short-write" 0.0
    ~doc:
      "Per-write probability of a short write: a prefix lands and the write \
       raises a transient EIO (requires --crash-at)"

let drop_fsync_arg =
  prob_arg "drop-fsync" 0.0
    ~doc:
      "Per-fsync probability the fsync is silently skipped, so the bytes die \
       with a later crash (requires --crash-at)"

let eio_fault_arg =
  prob_arg "eio" 0.0
    ~doc:
      "Per-operation probability of a transient EIO with no effect; absorbed \
       by the journal's bounded retry (requires --crash-at)"

let chaos_intrusion_arg =
  Arg.(
    value & flag
    & info [ "intrusion" ]
        ~doc:
          "Run the sentinel alongside the fault plan and fail any seed that \
           quarantines an honest member — the false-positive control for \
           sentinel calibration. Tune with --sentinel-profile.")

let chaos_cmd =
  let doc =
    "sweep seeded fault plans against the protocol's recovery layer"
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run_chaos $ members_arg 5 $ seeds_arg 20 $ loss_arg 0.20
      $ prob_arg "corrupt" ~doc:"Per-frame bit-flip probability" 0.0
      $ duplicate_arg 0.0
      $ prob_arg "spikes" ~doc:"Per-frame latency-spike probability" 0.0
      $ until_arg 30 $ no_retry_arg $ crash_at_arg $ restart_after_arg
      $ cold_arg
          "Restart cold (discard the journal) instead of warm — the control \
           arm for recovery experiments. The restarted leader still \
           broadcasts authenticated ColdRestart beacons so members rejoin \
           without waiting out the anti-entropy watchdog."
      $ torn_fault_arg $ short_write_arg $ drop_fsync_arg $ eio_fault_arg
      $ chaos_intrusion_arg $ sentinel_profile_arg $ json_arg $ verbose_arg)

(* --- failover --- *)

let run_failover members n_managers seeds loss kill_at partition_at heal_after
    repl_lag_ms until_s cold json verbose =
  let module FO = Enclaves.Failover in
  let directory = users members in
  let manager_names = List.init n_managers (fun i -> Printf.sprintf "m%d" i) in
  let config = { FO.default_config with FO.warm_failover = not cold } in
  (* --repl-lag delays only the manager↔manager links (a guaranteed
     latency spike per frame), so the replication stream runs behind
     the member-facing traffic — the lagging-backup scenario. *)
  let links =
    if repl_lag_ms <= 0 then []
    else
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if a = b then None
              else
                Some
                  ( (a, b),
                    Netsim.Faultplan.lossy_link ~spike_prob:1.0
                      ~spike:(Netsim.Vtime.of_ms repl_lag_ms) loss ))
            manager_names)
        manager_names
  in
  (* --partition-primary-at cuts the initial primary (m0) off from every
     other node; --heal-after reconnects it.  The successor promotes
     during the cut, and at the heal the stale primary must demote and
     rejoin as a catching-up backup — the post-heal split-brain arm. *)
  let partitions =
    if partition_at <= 0.0 then []
    else
      let east =
        List.filter (fun m -> m <> "m0") manager_names
        @ List.map fst directory
      in
      [
        {
          Netsim.Faultplan.west = [ "m0" ];
          east;
          from_ = Int64.of_float (partition_at *. 1e6);
          heal = Int64.of_float ((partition_at +. heal_after) *. 1e6);
        };
      ]
  in
  let plan =
    Netsim.Faultplan.make ~default_link:(Netsim.Faultplan.lossy_link loss)
      ~links ~partitions ()
  in
  let one seed =
    let t = FO.create ~seed ~config ~managers:manager_names ~directory () in
    Netsim.Network.set_faultplan (FO.net t) (Some plan);
    FO.start t;
    if kill_at > 0.0 then
      FO.crash_primary_at t (Int64.of_float (kill_at *. 1e6));
    ignore (FO.run ~until:(Netsim.Vtime.of_s until_s) t);
    let connected = FO.connected_members t in
    let ok = List.length connected = members in
    if not json then begin
      Printf.printf
        "seed=%-3Ld %-9s connected=%d/%d primary=%s failovers=%d failbacks=%d \
         demotions=%d\n"
        seed
        (if ok then "CONVERGED" else "WEDGED")
        (List.length connected) members
        (Option.value ~default:"(none)" (FO.primary t))
        (FO.failovers t) (FO.failbacks t) (FO.demotions t);
      Format.printf "         replication: %a@." Netsim.Stats.pp_named
        (Enclaves.Replication.named (FO.replication_stats t));
      if verbose then begin
        let pp_pairs fmt l =
          List.iter (fun (b, v) -> Format.fprintf fmt " %s=%Ld" b v) l
        in
        Format.printf "         lag (records):%a@." pp_pairs
          (List.map
             (fun (b, l) -> (b, Int64.of_int l))
             (FO.replication_lag t));
        Format.printf "         silence (µs): %a@." pp_pairs
          (FO.replication_silence t)
      end
    end;
    let row =
      Json.Obj
        [
          ("seed", Json.Int (Int64.to_int seed));
          ("converged", Json.Bool ok);
          ("connected", Json.Int (List.length connected));
          ("primary", Json.Str (Option.value ~default:"" (FO.primary t)));
          ("failovers", Json.Int (FO.failovers t));
          ("failbacks", Json.Int (FO.failbacks t));
          ("demotions", Json.Int (FO.demotions t));
          ( "replication",
            Json.counters
              (Enclaves.Replication.named (FO.replication_stats t)) );
        ]
    in
    (ok, row)
  in
  if not json then
    Printf.printf
      "failover: %d members, %d managers, loss=%.0f%%%s%s repl-lag=%dms \
       bound=%ds (%s)\n"
      members n_managers (100. *. loss)
      (if kill_at > 0.0 then Printf.sprintf " kill-primary@%.1fs" kill_at
       else "")
      (if partition_at > 0.0 then
         Printf.sprintf " partition-primary@%.1fs heal-after=%.1fs"
           partition_at heal_after
       else "")
      repl_lag_ms until_s
      (if cold then "cold baseline" else "warm");
  converge_sweep ~json "failover"
    [
      ("members", Json.Int members);
      ("managers", Json.Int n_managers);
      ("loss", Json.Float loss);
      ("kill_primary_at_s", Json.Float kill_at);
      ("warm", Json.Bool (not cold));
    ]
    "converged" (seeds_from 1L seeds) one

let fo_managers_arg =
  Arg.(
    value & opt positive 3
    & info [ "managers" ] ~doc:"Number of managers in the succession")

let kill_primary_arg =
  Arg.(
    value & opt float 1.0
    & info [ "kill-primary-at" ]
        ~doc:
          "Fail-stop the current primary at this virtual time (seconds); \
           0 disables the kill (liveness-only run)")

let partition_primary_arg =
  Arg.(
    value & opt float 0.0
    & info [ "partition-primary-at" ]
        ~doc:
          "Cut the initial primary off from every other node at this \
           virtual time (seconds); 0 disables the partition. Combine with \
           $(b,--heal-after) to exercise the post-heal demotion path")

let heal_after_arg =
  Arg.(
    value & opt float 2.5
    & info [ "heal-after" ]
        ~doc:
          "Heal the $(b,--partition-primary-at) cut after this many \
           (virtual) seconds, forcing the stale primary to meet its \
           successor's higher term and demote")

let repl_lag_arg =
  Arg.(
    value & opt int 0
    & info [ "repl-lag" ]
        ~doc:
          "Extra latency (milliseconds) on every manager-to-manager link, \
           so backups replicate behind the member-facing traffic")

let failover_cmd =
  let doc =
    "kill the primary of a multi-manager group under seeded faults and \
     report promotion mode, replication counters and per-backup lag"
  in
  Cmd.v (Cmd.info "failover" ~doc)
    Term.(
      const run_failover $ members_arg 5 $ fo_managers_arg $ seeds_arg 20
      $ loss_arg 0.20 $ kill_primary_arg $ partition_primary_arg
      $ heal_after_arg $ repl_lag_arg $ until_arg 15
      $ cold_arg
          "Disable warm promotion: the successor always cold-restarts and \
           members re-handshake — the baseline warm failover is measured \
           against"
      $ json_arg $ verbose_arg)

(* --- crash-matrix --- *)

let run_crash_matrix members appends compact_every seed no_torn verbose =
  let show label report =
    Printf.printf "%s:\n" label;
    Format.printf "%a@." Enclaves.Crash_matrix.pp_report report;
    if verbose || report.Enclaves.Crash_matrix.violations <> [] then
      List.iter
        (fun v -> Format.printf "  %a@." Enclaves.Crash_matrix.pp_violation v)
        report.Enclaves.Crash_matrix.violations;
    report.Enclaves.Crash_matrix.violations = []
  in
  let journal_ok =
    show "journal"
      (Enclaves.Crash_matrix.run ~members ~appends ~compact_every ~seed
         ~torn:(not no_torn) ())
  in
  let queue_ok =
    show "delivery queue"
      (Enclaves.Crash_matrix.run_queue ~seed ~torn:(not no_torn) ())
  in
  let degraded_ok =
    show "degraded-mode queue"
      (Enclaves.Crash_matrix.run_degraded ~seed ~torn:(not no_torn) ())
  in
  if journal_ok && queue_ok && degraded_ok then begin
    print_endline
      "every crash image recovers: no exception, no resurrected session, no \
       epoch regression, no acknowledged write lost, no delivery duplicated \
       after replay, no shed record resurrected from a degraded-mode image";
    0
  end
  else 1

let cm_appends_arg =
  Arg.(
    value & opt int 24
    & info [ "appends" ]
        ~doc:"Extra epoch bumps appended (drives repeated compaction)")

let cm_compact_arg =
  Arg.(
    value & opt int 8
    & info [ "compact-every" ] ~doc:"Journal auto-compaction threshold")

let cm_no_torn_arg =
  Arg.(
    value & flag
    & info [ "no-torn" ]
        ~doc:"Skip torn-write variants (boundary images only; faster)")

let crash_matrix_cmd =
  let doc =
    "enumerate every crash point of the journal's disk protocol and check \
     that recovery survives each one"
  in
  Cmd.v
    (Cmd.info "crash-matrix" ~doc)
    Term.(
      const run_crash_matrix
      $ members_arg ~doc:"Sessions in the workload" ~kind:Arg.int 4
      $ cm_appends_arg $ cm_compact_arg
      $ seed_arg ~doc:"Workload key/nonce seed" 11L
      $ cm_no_torn_arg $ verbose_arg)

(* --- churn --- *)

let run_churn members churn_rate epoch_window rounds seeds seed loss duplicate
    stale json verbose =
  (* Flag validation: reject configurations whose failure mode would be
     trivial (nothing churns, or everything wedges) loudly instead. *)
  if members < 2 then
    usage "churn"
      "--members must be at least 2 (one member to churn and one to stay)";
  if churn_rate <= 0.0 then
    usage "churn"
      "--churn-rate must be in (0,1] — the per-round probability an \
       in-session member is evicted as silent";
  if epoch_window < 0 then
    usage "churn"
      "--epoch-window must be non-negative (0 delivers only same-epoch \
       records fresh)";
  let directory = users members in
  let policy =
    {
      Enclaves.Delivery.width = epoch_window;
      on_stale =
        (if stale then Enclaves.Delivery.Deliver_stale
         else Enclaves.Delivery.Reject);
    }
  in
  (* Tight anti-entropy watchdogs so an evicted member gives up on its
     dead session and re-joins within a churn round or two. *)
  let recovery =
    {
      D.default_recovery with
      D.digest_period = Netsim.Vtime.of_ms 500;
      probe_after = Netsim.Vtime.of_ms 1500;
      reset_after = Netsim.Vtime.of_s 3;
    }
  in
  let round_s = 4 in
  let rekeys_total = ref 0 in
  let one seed =
    let rng = Prng.Splitmix.create seed in
    let d =
      D.create ~seed ~retry:D.default_retry ~recovery ~delivery:policy
        ~leader:"leader" ~directory ()
    in
    let plan =
      Netsim.Faultplan.make
        ~default_link:(Netsim.Faultplan.lossy_link ~duplicate loss)
        ()
    in
    Netsim.Network.set_faultplan (D.net d) (Some plan);
    List.iter (fun (n, _) -> D.join d n) directory;
    ignore (D.run ~until:(Netsim.Vtime.of_s 5) d);
    let churn_end = 5 + (rounds * round_s) in
    (* Rekeys every 2s age the queued entries against the window. *)
    ignore
      (D.start_periodic_rekey d
         ~period:(Netsim.Vtime.of_s 2)
         ~until:(Netsim.Vtime.of_s churn_end) ());
    rekeys_total := (churn_end - 5) / 2;
    let hwm = ref 0 and evictions = ref 0 in
    for r = 1 to rounds do
      List.iter
        (fun (n, _) ->
          let offline = List.mem n (D.offline_members d) in
          if (not offline) && Prng.Splitmix.next_float rng < churn_rate then begin
            incr evictions;
            D.expel d n
          end)
        directory;
      let t0 = 5 + ((r - 1) * round_s) in
      for s = 1 to round_s do
        ignore (D.run ~until:(Netsim.Vtime.of_s (t0 + s)) d);
        hwm := max !hwm (D.total_queue_depth d)
      done
    done;
    (* Heal: stop churning, let the watchdogs re-admit everyone and the
       queues drain. *)
    ignore (D.run ~until:(Netsim.Vtime.of_s (churn_end + 25)) d);
    let member_rows =
      List.map (fun (n, _) -> (n, D.member d n)) directory
    in
    let no_dup =
      (* Zero duplicate deliveries: every member applied a strictly
         increasing run of delivery seqs, no seq twice. *)
      List.for_all
        (fun (_, m) ->
          let rec mono last = function
            | [] -> true
            | s :: rest -> s > last && mono s rest
          in
          mono (-1) (Enclaves.Member.queued_applied m))
        member_rows
    in
    let no_leak =
      (* Zero cross-epoch leaks: with the reject policy no stale record
         reaches any member at all; with --deliver-stale they arrive
         flagged but [converged] below separately proves no member's
         installed epoch moved off the leader's. *)
      stale
      || List.for_all
           (fun (_, m) -> Enclaves.Member.stale_deliveries m = 0)
           member_rows
    in
    (* Bounded depth: each eviction parks at most the notices plus one
       record per rekey fired while it was away. *)
    let depth_bound = members * (!rekeys_total + 4) in
    let bounded = !hwm <= depth_bound in
    let drained =
      D.total_queue_depth d = 0 && D.offline_members d = []
    in
    let converged = D.view_converged d in
    let ok = no_dup && no_leak && bounded && drained && converged in
    if not json then begin
      Printf.printf
        "seed=%-3Ld %-9s evictions=%-3d hwm=%-3d dup=%b leak=%b drained=%b \
         bounded=%b\n"
        seed
        (if ok then "CONVERGED" else "WEDGED")
        !evictions !hwm (not no_dup) (not no_leak) drained bounded;
      Format.printf "         delivery: %a@." Netsim.Stats.pp_named
        (D.delivery_counters d);
      if verbose then
        Format.printf "         recovery: %a@." Netsim.Stats.pp_named
          (D.recovery_counters d)
    end;
    let row =
      Json.Obj
        [
          ("seed", Json.Int (Int64.to_int seed));
          ("converged", Json.Bool ok);
          ("evictions", Json.Int !evictions);
          ("queue_hwm", Json.Int !hwm);
          ("duplicates", Json.Bool (not no_dup));
          ("leaks", Json.Bool (not no_leak));
          ("drained", Json.Bool drained);
          ("bounded", Json.Bool bounded);
          ("delivery", Json.counters (D.delivery_counters d));
        ]
    in
    (ok, row)
  in
  if not json then
    Printf.printf
      "churn: %d members, rate=%.0f%%/round, window=%d, %d rounds, \
       loss=%.0f%% dup=%.0f%% stale=%s\n"
      members (100. *. churn_rate) epoch_window rounds (100. *. loss)
      (100. *. duplicate)
      (if stale then "deliver" else "reject");
  converge_sweep ~json "churn"
    [
      ("members", Json.Int members);
      ("churn_rate", Json.Float churn_rate);
      ("epoch_window", Json.Int epoch_window);
      ("rounds", Json.Int rounds);
      ("loss", Json.Float loss);
      ("duplicate", Json.Float duplicate);
      ("stale_policy", Json.Str (if stale then "deliver" else "reject"));
    ]
    "converged with clean delivery" (seeds_from seed seeds) one

let churn_rate_arg =
  prob_arg "churn-rate" 0.4
    ~doc:
      "Per-round probability that each in-session member is evicted as \
       silent (its traffic then queues durably until it re-joins)"

let epoch_window_arg =
  Arg.(
    value & opt int 1
    & info [ "epoch-window" ]
        ~doc:
          "Inclusive epoch-window width of the re-seal policy: queued \
           records at most this many rekeys old still drain fresh")

let churn_rounds_arg =
  Arg.(value & opt positive 6 & info [ "rounds" ] ~doc:"Churn rounds per seed")

let churn_stale_arg =
  Arg.(
    value & flag
    & info [ "deliver-stale" ]
        ~doc:
          "Use the deliver-stale policy arm instead of reject for \
           beyond-window records")

let churn_cmd =
  let doc =
    "soak the store-and-forward delivery queues under seeded member churn \
     and verify exactly-once, in-window delivery"
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run_churn $ members_arg 5 $ churn_rate_arg $ epoch_window_arg
      $ churn_rounds_arg
      $ seeds_arg ~doc:"Seeds swept from --seed up" 5
      $ seed_arg 42L
      $ loss_arg ~doc:"Per-frame loss probability during the soak" 0.05
      $ duplicate_arg
          ~doc:
            "Per-frame duplication probability (exercises the member-side \
             delivery floor)"
          0.05
      $ churn_stale_arg $ json_arg $ verbose_arg)

(* --- the campaign (shared by intrude / calibrate / nemesis) --- *)

(* Every campaign arm, in calibrate's sweep order. *)
let arms =
  Netsim.Intruder.
    [
      Preauth_flood; Handshake_storm; Forge_burst; Replay_burst; Frame_replay;
      Frame_flood;
    ]

(* A framing arm attacks from the raw wire with no keys of its own; the
   other arms from the compromised member mallory's endpoint. *)
let framing = function
  | Netsim.Intruder.Frame_replay | Netsim.Intruder.Frame_flood -> true
  | _ -> false

let mallory = ("mallory", "mallory-pw")
let victim = "user0"

type actor = Insider of Adversary.Insider.t | Outsider of Adversary.Outsider.t

(* Arm the attacker at 2 s, once the early members are in, and launch
   its campaign over 3-6 s. *)
let launch d arm =
  let actor =
    if framing arm then begin
      (* Give the victim leader-bound traffic of its own so the
         replay arm has genuinely-MACed frames to re-inject under
         the victim's name. *)
      D.send_app d victim "victim chatter";
      ignore (D.run ~until:(Netsim.Vtime.of_ms 2200) d);
      Outsider (Adversary.Outsider.create ~driver:d ~victim ())
    end
    else begin
      (* Give the insider replayable traffic of its own and a
         session key to pocket, then rotate the group so the
         pocketed key is genuinely retired when the forge arm
         reuses it. *)
      D.send_app d "mallory" "insider chatter";
      ignore (D.run ~until:(Netsim.Vtime.of_ms 2200) d);
      let insider =
        Adversary.Insider.create ~driver:d ~insider:"mallory"
          ~password:"mallory-pw" ()
      in
      ignore (Adversary.Insider.harvest insider);
      D.rekey d;
      Insider insider
    end
  in
  (* 8 frames every 20 ms: five times the pre-auth queue's service
     rate (4 per 50 ms) with refills faster than the pump drains, so
     without admission control the queue stays pinned at capacity
     and tail-drops legitimate joins for the whole window. *)
  let campaign =
    Netsim.Intruder.campaign ~arm ~start:(Netsim.Vtime.of_s 3)
      ~stop:(Netsim.Vtime.of_s 6)
      ~period:(Netsim.Vtime.of_ms 20)
      ~burst:8 ()
  in
  (match actor with
  | Insider i -> ignore (Adversary.Insider.launch i campaign)
  | Outsider o -> ignore (Adversary.Outsider.launch o campaign));
  actor

(* The last half of the honest users (at least one) join in the middle
   of the attack window — the join-success probes the admission-control
   comparison is measured on. *)
let late_joiners members = max 1 (members / 2)

(* One seeded attack run to 8 virtual seconds, under the sentinel
   [intrusion] (none for the no-admission baseline). The early members
   join, the campaign runs 3-6 s, and the late joiners arrive at 4 s.
   Returns the driver, the attacker, and how many late joins had landed
   by 7 s. *)
let attack_run ?intrusion ~members arm seed =
  let honest = users members in
  let n_late = late_joiners members in
  let early = List.filteri (fun i _ -> i < members - n_late) honest in
  let late = List.filteri (fun i _ -> i >= members - n_late) honest in
  let d =
    D.create ~seed ~retry:D.default_retry ~preauth:D.default_preauth
      ?intrusion ~leader:"leader" ~directory:(honest @ [ mallory ]) ()
  in
  (* The insider joins only for the insider arms; a framing campaign
     runs against an all-honest group, with the attacker on the raw
     wire. *)
  List.iter (fun (n, _) -> D.join d n)
    (early @ if framing arm then [] else [ mallory ]);
  ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
  let actor = launch d arm in
  ignore (D.run ~until:(Netsim.Vtime.of_s 4) d);
  List.iter (fun (n, _) -> D.join d n) late;
  (* Joins are scored one second after the campaign window closes —
     the deadline that separates "rode through the flood" from
     "eventually recovered once it stopped". *)
  ignore (D.run ~until:(Netsim.Vtime.of_s 7) d);
  let joins_ok =
    List.length
      (List.filter
         (fun (n, _) -> Enclaves.Member.is_connected (D.member d n))
         late)
  in
  ignore (D.run ~until:(Netsim.Vtime.of_s 8) d);
  (d, actor, joins_ok)

(* Whether the sentinel caught the attacker: mallory at quarantine or
   beyond or, for a framing arm, the WIRE pseudo-peer contained (scored
   to quarantine, or its injections dropped at the door). *)
let detected d arm =
  if framing arm then
    quarantined d S.wire_peer
    || List.assoc "injections_blocked" (D.sentinel_counters d) > 0
  else quarantined d "mallory"

(* --- intrude --- *)

let run_intrude arm members seeds until_s no_admission sn_config json
    verbose =
  let framing = framing arm in
  if members < 2 then
    usage "intrude"
      "--members must be at least 2 (one early member and one joining \
       during the attack)";
  if until_s < 10 then
    usage "intrude"
      "--until must be at least 10 (the campaign runs 3s-6s and the \
       post-containment probe needs the tail)";
  let n_late = late_joiners members in
  let one seed =
    let intrusion = if no_admission then None else Some sn_config in
    let d, actor, joins_ok = attack_run ?intrusion ~members arm seed in
    let sentinel = D.sentinel_counters d in
    let injections_blocked = List.assoc "injections_blocked" sentinel in
    let suspect = if framing then victim else "mallory" in
    let level = Option.map (fun sn -> S.level sn suspect) (D.sentinel d) in
    let wire_level =
      Option.map (fun sn -> S.level sn S.wire_peer) (D.sentinel d)
    in
    (* Framing containment is dual: the wire must be contained while
       the framed honest victim must NOT be. *)
    let contained = detected d arm && not (framing && quarantined d victim) in
    (* Post-containment secrecy probe: a secret sent from here on must
       be unreadable to an eavesdropper who holds every key the
       insider ever pocketed AND the whole wire trace — including the
       early group-key distributions wrapped under the insider's
       session key. Only the emergency rekey (which excluded the
       suspect) makes this hold; in the baseline the insider is still
       a member, its session key unwraps every rotation, and the
       secret reads straight off the wire. A pure wire attacker
       pockets nothing, so for the framing arms the probe checks the
       replayed/fabricated traffic leaked no key material. *)
    let secret = Printf.sprintf "post-containment secret %Ld" seed in
    D.send_app d "user0" secret;
    ignore (D.run ~until:(Netsim.Vtime.of_s until_s) d);
    let unreadable =
      let know = Adversary.Knowledge.create () in
      (match actor with
      | Insider i ->
          List.iter (Adversary.Knowledge.add_key know)
            (Adversary.Insider.retired_keys i)
      | Outsider _ -> ());
      let trace = Netsim.Network.trace (D.net d) in
      Adversary.Knowledge.observe_trace know trace;
      Adversary.Knowledge.saturate know;
      not
        (List.exists
           (fun payload ->
             match Adversary.Knowledge.decrypt_app know payload with
             | Some (_, body) -> body = secret
             | None -> false)
           (Netsim.Trace.payloads trace))
    in
    let injected =
      match actor with
      | Insider i -> Adversary.Insider.counters i
      | Outsider o -> Adversary.Outsider.counters o
    in
    let level_str none = Option.fold ~none ~some:S.level_name in
    if not json then begin
      (if framing then
         Printf.printf
           "seed=%-3Ld victim=%-11s wire=%-11s blocked=%-4d joins=%d/%d \
            sealed=%b\n"
           seed
           (level_str "(no sentinel)" level)
           (level_str "-" wire_level)
           injections_blocked joins_ok n_late unreadable
       else
         Printf.printf "seed=%-3Ld %-11s joins=%d/%d rekeys=%d sealed=%b\n"
           seed
           (level_str "(no sentinel)" level)
           joins_ok n_late (List.assoc "emergency_rekeys" sentinel) unreadable);
      Format.printf "         injected: %a@." Netsim.Stats.pp_named injected;
      if verbose then
        Format.printf "         sentinel: %a@." Netsim.Stats.pp_named
          (D.sentinel_counters d)
    end;
    let row =
      Json.Obj
        ([
           ("seed", Json.Int (Int64.to_int seed));
           ("contained", Json.Bool contained);
           ("level", Json.Str (level_str "" level));
           ("joins_ok", Json.Int joins_ok);
           ("joins_total", Json.Int n_late);
           ("post_rekey_unreadable", Json.Bool unreadable);
           ("injected", Json.counters injected);
           ("sentinel", Json.counters (D.sentinel_counters d));
         ]
        @
        if framing then
          [
            ("victim", Json.Str victim);
            ("wire_level", Json.Str (level_str "" wire_level));
            ("injections_blocked", Json.Int injections_blocked);
          ]
        else [])
    in
    ((contained, joins_ok, unreadable), row)
  in
  if not json then
    Printf.printf
      "intrude: arm=%s %d members (%s), %d late joiners, admission=%s \
       bound=%ds\n"
      (Netsim.Intruder.arm_name arm)
      members
      (if framing then "wire attacker framing " ^ victim else "+insider")
      n_late
      (if no_admission then "OFF (baseline)" else "on")
      until_s;
  let results = List.map one (seeds_from 1L seeds) in
  let contained_n =
    List.length (List.filter (fun ((c, _, _), _) -> c) results)
  in
  let joins_ok = List.fold_left (fun a ((_, j, _), _) -> a + j) 0 results in
  let joins_total = seeds * n_late in
  let sealed_n =
    List.length (List.filter (fun ((_, _, u), _) -> u) results)
  in
  let join_ratio = float_of_int joins_ok /. float_of_int joins_total in
  let ok =
    if no_admission then true
      (* the baseline arm is informational: it documents the damage
         admission control is measured against *)
    else contained_n = seeds && sealed_n = seeds && join_ratio >= 0.95
  in
  if json then
    print_sweep "intrude"
      [
        ("arm", Json.Str (Netsim.Intruder.arm_name arm));
        ("members", Json.Int members);
        ("admission", Json.Bool (not no_admission));
      ]
      (List.map snd results)
      [
        ("seeds", Json.Int seeds);
        ("contained", Json.Int contained_n);
        ("join_success", Json.Float join_ratio);
        ("post_rekey_sealed", Json.Int sealed_n);
        ("ok", Json.Bool ok);
      ]
  else
    Printf.printf
      "\n%d/%d seeds %s; join success %d/%d (%.0f%%); post-rekey sealed \
       %d/%d%s\n"
      contained_n seeds
      (if framing then "contained the wire (victim spared)"
       else "contained the insider")
      joins_ok joins_total (100.0 *. join_ratio) sealed_n seeds
      (if no_admission then "  [baseline: admission off]" else "");
  if ok then 0 else 1

let intrude_arm_arg =
  (* The experiments' short names, then every arm by its full name. *)
  let names =
    Netsim.Intruder.
      [
        ("a1-flood", Preauth_flood); ("storm", Handshake_storm);
        ("a2-forge", Forge_burst); ("a3-replay", Replay_burst);
      ]
    @ List.map (fun a -> (Netsim.Intruder.arm_name a, a)) arms
  in
  Arg.(
    value
    & pos 0 (enum names) Netsim.Intruder.Preauth_flood
    & info [] ~docv:"ARM" ~absent:"a1-flood"
        ~doc:("The campaign arm: " ^ doc_alts_enum names))

let no_admission_arg =
  Arg.(
    value & flag
    & info [ "no-admission" ]
        ~doc:
          "Disable the sentinel (baseline arm): the pre-auth queue still \
           runs, but nothing scores evidence or denies admission, so the \
           flood's damage to legitimate joins is measured raw")

let intrude_cmd =
  let doc =
    "run a seeded intrusion campaign — compromised insider (pre-auth flood, \
     handshake storm, expired-key forgery, replay) or wire-level framing \
     (frame-replay, frame-flood) — against the online sentinel and report \
     containment, join success and post-rekey secrecy"
  in
  Cmd.v (Cmd.info "intrude" ~doc)
    Term.(
      const run_intrude $ intrude_arm_arg $ members_arg 5 $ seeds_arg 5
      $ until_arg 12 $ no_admission_arg $ sentinel_profile_arg $ json_arg
      $ verbose_arg)

(* --- calibrate --- *)

let run_calibrate seeds clean_seeds json base_cfg =
  let members = 5 in
  let honest = users members in
  (* One seeded attack run under [cfg] — the intrude scenario without
     the secrecy probe, bounded at 8 virtual seconds. Returns whether
     the attacker was contained, whether any honest member was falsely
     quarantined, and whether the late joins all came up. *)
  let attack_verdicts cfg arm seed =
    let d, _, joins_ok = attack_run ~intrusion:cfg ~members arm seed in
    ( detected d arm,
      List.exists (fun (n, _) -> quarantined d n) honest,
      joins_ok = late_joiners members )
  in
  (* One clean-chaos run: no attacker, a lossy fault plan. Any honest
     quarantine is a false positive. *)
  let clean_run cfg seed =
    let d =
      D.create ~seed ~retry:D.default_retry ~preauth:D.default_preauth
        ~intrusion:cfg ~leader:"leader" ~directory:honest ()
    in
    let plan =
      Netsim.Faultplan.make
        ~default_link:
          (Netsim.Faultplan.lossy_link ~corrupt:0.02 ~duplicate:0.02
             ~spike_prob:0.0 0.15)
        ()
    in
    Netsim.Network.set_faultplan (D.net d) (Some plan);
    List.iter (fun (n, _) -> D.join d n) honest;
    ignore (D.run ~until:(Netsim.Vtime.of_s 8) d);
    List.exists (fun (n, _) -> quarantined d n) honest
  in
  let points =
    let b = base_cfg in
    [
      ("shipped", b);
      ("no-attribution", { b with S.attribution = false });
      ("wire-discount-0.5", { b with S.wire_discount = 0.5 });
      ("wire-discount-1.0", { b with S.wire_discount = 1.0 });
      ("no-corroboration", { b with S.corroborate_floor = 0.0 });
      ("quarantine-15", { b with S.quarantine_at = 15.0; expel_at = 40.0 });
      ("quarantine-40", { b with S.quarantine_at = 40.0; expel_at = 90.0 });
      ("half-life-1s", { b with S.half_life = Netsim.Vtime.of_s 1 });
      ("half-life-4s", { b with S.half_life = Netsim.Vtime.of_s 4 });
    ]
  in
  if not json then
    Printf.printf
      "calibrate: %d points x (%d arms x %d seeds + %d clean seeds)\n\n\
       %-18s %10s %6s %6s %6s\n"
      (List.length points) (List.length arms) seeds clean_seeds "point"
      "detection" "fp" "joins" "note";
  let eval (label, cfg) =
    let atk =
      List.concat_map
        (fun arm -> List.map (attack_verdicts cfg arm) (seeds_from 1L seeds))
        arms
    in
    let clean = List.map (clean_run cfg) (seeds_from 101L clean_seeds) in
    let n_atk = List.length atk in
    let count p l = List.length (List.filter p l) in
    let detection =
      float_of_int (count (fun (d, _, _) -> d) atk) /. float_of_int n_atk
    in
    let fp =
      float_of_int (count (fun (_, f, _) -> f) atk + count Fun.id clean)
      /. float_of_int (n_atk + List.length clean)
    in
    let joins =
      float_of_int (count (fun (_, _, j) -> j) atk) /. float_of_int n_atk
    in
    if not json then
      Printf.printf "%-18s %10.2f %6.2f %6.2f\n%!" label detection fp joins;
    (label, detection, fp, joins)
  in
  let frontier = List.map eval points in
  let metric name =
    match List.find_opt (fun (l, _, _, _) -> l = name) frontier with
    | Some (_, d, f, _) -> (d, f)
    | None -> (0.0, 1.0)
  in
  let sd, sf = metric "shipped" in
  let bd, bf = metric "no-attribution" in
  let dominates = sd >= bd && sf <= bf in
  if json then
    Json.print
      (Json.Obj
         [
           ("command", Json.Str "calibrate");
           ( "frontier",
             Json.Arr
               (List.map
                  (fun (label, d, f, j) ->
                    Json.Obj
                      [
                        ("point", Json.Str label);
                        ("detection", Json.Float d);
                        ("false_positives", Json.Float f);
                        ("join_success", Json.Float j);
                      ])
                  frontier) );
           ("shipped_dominates_baseline", Json.Bool dominates);
         ])
  else
    Printf.printf
      "\nshipped defaults vs no-attribution baseline: detection %.2f vs \
       %.2f, fp %.2f vs %.2f -> %s\n"
      sd bd sf bf
      (if dominates then "DOMINATES" else "DOMINATED (regression)");
  if dominates then 0 else 1

let clean_seeds_arg =
  Arg.(
    value & opt int 3
    & info [ "clean-seeds" ]
        ~doc:"Clean-chaos seeds per point (false-positive control)")

let calibrate_cmd =
  let doc =
    "sweep sentinel weight/threshold/half-life points, running every \
     intruder arm and a clean-chaos control per point, and emit the \
     detection-vs-false-positive frontier (fails unless the shipped \
     defaults dominate the no-attribution baseline)"
  in
  Cmd.v (Cmd.info "calibrate" ~doc)
    Term.(
      const run_calibrate
      $ seeds_arg ~doc:"Seeds per (point, attack arm) pair" 2
      $ clean_seeds_arg $ json_arg $ sentinel_profile_arg)

(* --- nemesis --- *)

(* The omni-fault soak: one seeded run composes every adversarial arm
   the suite knows — lossy links, torn/short/EIO writes, fsync-latency
   spikes, a persistent write stall, an ENOSPC window, an insider
   pre-auth flood, a member outage with store-and-forward backlog, and
   a leader crash+restart — then checks the generic end state: the
   view reconverged, every legitimate join landed, no honest member
   was quarantined, the leader re-armed durability, every shed record
   left a durable Drop marker, and queue bytes stayed bounded. The
   [--no-degrade] arm runs the same schedule with the degraded-mode
   ladder disabled and is expected to wedge on the first refused
   journal write — the damage the ladder is measured against. *)
let run_nemesis members seeds until_s no_degrade expect_wedge json verbose
    sn_config =
  let module L = Enclaves.Leader in
  if members < 4 then
    usage "nemesis"
      "--members must be at least 4 (early members, an offline victim and \
       late joiners)";
  if until_s < 12 then
    usage "nemesis"
      "--until must be at least 12 (the fault schedule runs to 8s and \
       recovery needs the tail)";
  let honest = users members in
  let n_late = 2 in
  let early = List.filteri (fun i _ -> i < members - n_late) honest in
  let late = List.filteri (fun i _ -> i >= members - n_late) honest in
  let offline_victim = "user1" in
  let global_budget = 2500 in
  let one seed =
    let policy =
      if no_degrade then Some { L.default_policy with L.degrade = false }
      else None
    in
    let storage_faults =
      {
        Store.Fault.none with
        Store.Fault.torn_write = 0.02;
        short_write = 0.02;
        eio = 0.02;
        drop_fsync = 0.05;
        fsync_spike = 0.3;
        fsync_spike_ms = 40;
      }
    in
    let budgets =
      {
        Enclaves.Delivery.per_member_bytes = Some 300;
        global_bytes = Some global_budget;
      }
    in
    let d =
      D.create ~seed ?policy ~retry:D.default_retry
        ~recovery:D.default_recovery ~storage_faults
        ~delivery:Enclaves.Delivery.default_policy ~delivery_budgets:budgets
        ~preauth:D.default_preauth ~intrusion:sn_config ~leader:"leader"
        ~directory:(honest @ [ mallory ]) ()
    in
    let fault = Option.get (D.fault d) in
    let plan =
      Netsim.Faultplan.make
        ~default_link:(Netsim.Faultplan.lossy_link ~duplicate:0.02 0.05)
        ()
    in
    Netsim.Network.set_faultplan (D.net d) (Some plan);
    (* Leader crash at 2.5s, warm restart 400ms later — before the
       storage-pressure window opens, so recovery itself runs against
       a disk that still accepts writes (the degraded crash matrix
       covers the crash-while-degraded composition offline). *)
    D.schedule_leader_crash d
      ~at:(Netsim.Vtime.of_ms 2500)
      ~restart_after:(Netsim.Vtime.of_ms 400)
      ~warm:true ();
    let wedge = ref None in
    let seg f = if !wedge = None then try f () with e -> wedge := Some e in
    seg (fun () ->
        List.iter (fun (n, _) -> D.join d n) (early @ [ mallory ]);
        ignore (D.run ~until:(Netsim.Vtime.of_s 2) d));
    (* The insider harvests its key material, then floods the pre-auth
       door from 3s to 6s — five times the service rate. *)
    seg (fun () ->
        ignore (launch d Netsim.Intruder.Preauth_flood);
        ignore (D.run ~until:(Netsim.Vtime.of_s 3) d);
        (* Open the backlog phase — after the 2.5s crash, because the
           offline set is leader-instance state, not journaled: one
           member goes dark while periodic rekeys keep minting sealed
           records for it, the byte budgets' pressure source. *)
        D.mark_offline d offline_victim;
        ignore
          (D.start_periodic_rekey d
             ~period:(Netsim.Vtime.of_ms 300)
             ~until:(Netsim.Vtime.of_s 8) ());
        ignore (D.run ~until:(Netsim.Vtime.of_ms 3500) d));
    (* Dying disk: every mutation refused until the stall heals. The
       offline mark is re-asserted first: a post-restart re-handshake
       from the victim drains its queue and clears the mark (that is
       the reconnect contract), but this victim is still dark — the
       operator marks it again. *)
    seg (fun () ->
        D.mark_offline d offline_victim;
        Store.Fault.trigger_stall fault;
        ignore (D.run ~until:(Netsim.Vtime.of_ms 4300) d);
        Store.Fault.heal_stall fault;
        ignore (D.run ~until:(Netsim.Vtime.of_ms 4500) d));
    (* Disk full: clamp the byte budget to a sliver above current
       usage; the journal and queue mirrors exhaust it within a few
       rekeys. Space returns at 6.5s. *)
    seg (fun () ->
        Store.Fault.set_space_budget fault
          (Some (Store.Fault.bytes_used fault + 150));
        ignore (D.run ~until:(Netsim.Vtime.of_ms 6500) d);
        Store.Fault.set_space_budget fault None;
        ignore (D.run ~until:(Netsim.Vtime.of_s 8) d));
    (* Heal phase: the dark member returns, the late joiners arrive,
       and the run settles to the end-state check. *)
    seg (fun () ->
        D.mark_online d offline_victim;
        List.iter (fun (n, _) -> D.join d n) late;
        ignore (D.run ~until:(Netsim.Vtime.of_s until_s) d));
    let wedged = !wedge <> None in
    let resource = D.resource_counters d in
    let count name = List.assoc name resource in
    let honest_quarantined =
      List.exists (fun (n, _) -> quarantined d n) honest
    in
    let joins_ok =
      List.length
        (List.filter
           (fun (n, _) -> Enclaves.Member.is_connected (D.member d n))
           honest)
    in
    let reconverged =
      (* Convergence over the honest members only: the insider is
         expected to end quarantined and out of the view. *)
      (not wedged)
      &&
      let lview = L.members (D.leader d) in
      match L.group_key (D.leader d) with
      | None -> false
      | Some gk ->
          List.for_all
            (fun (n, _) ->
              let m = D.member d n in
              Enclaves.Member.is_connected m
              && (match Enclaves.Member.group_key m with
                 | Some gk' -> gk'.Enclaves.Types.epoch = gk.Enclaves.Types.epoch
                 | None -> false)
              && Enclaves.Member.group_view m = lview)
            honest
    in
    let healthy_end =
      (not wedged)
      && L.mode (D.leader d) = L.Healthy
      && L.durability_armed (D.leader d)
    in
    let markers_durable, bytes_bounded =
      match L.delivery (D.leader d) with
      | None -> (true, true)
      | Some dl ->
          ( not (Enclaves.Delivery.dirty dl),
            Enclaves.Delivery.total_bytes dl <= global_budget )
    in
    let survived =
      (not wedged) && reconverged
      && joins_ok = List.length honest
      && (not honest_quarantined)
      && healthy_end && markers_durable && bytes_bounded
    in
    (* The run only counts if the nemesis actually bit: the ladder was
       entered and re-armed, records were shed, and the disk refused
       writes. (Trivially true for the baseline arm, which wedges
       before re-arming.) *)
    let engaged =
      no_degrade
      || count "degraded_entries" > 0
         && D.rearms d > 0
         && count "records_shed" > 0
         && count "enospc_hits" > 0
    in
    let ok =
      if no_degrade then (not expect_wedge) || wedged
      else survived && engaged
    in
    if not json then begin
      Printf.printf
        "seed=%-3Ld %-8s joins=%d/%d reconverged=%b healthy=%b shed=%d \
         enospc=%d degraded=%d rearms=%d%s\n"
        seed
        (if wedged then "WEDGED"
         else if survived then "SURVIVED"
         else "DAMAGED")
        joins_ok (List.length honest) reconverged healthy_end
        (count "records_shed") (count "enospc_hits")
        (count "degraded_entries") (D.rearms d)
        (match !wedge with
        | Some e -> "  [" ^ Printexc.to_string e ^ "]"
        | None -> "");
      if verbose then begin
        Format.printf "         resource: %a@." Netsim.Stats.pp_named resource;
        Format.printf "         storage:  %a@." Netsim.Stats.pp_named
          (D.storage_counters d);
        Format.printf "         sentinel: %a@." Netsim.Stats.pp_named
          (D.sentinel_counters d)
      end
    end;
    let row =
      Json.Obj
        [
          ("seed", Json.Int (Int64.to_int seed));
          ("wedged", Json.Bool wedged);
          ("survived", Json.Bool survived);
          ("reconverged", Json.Bool reconverged);
          ("joins_ok", Json.Int joins_ok);
          ("joins_total", Json.Int (List.length honest));
          ("honest_quarantined", Json.Bool honest_quarantined);
          ("healthy_end", Json.Bool healthy_end);
          ("shed_markers_durable", Json.Bool markers_durable);
          ("bytes_bounded", Json.Bool bytes_bounded);
          ("resource", Json.counters resource);
          ("storage", Json.counters (D.storage_counters d));
        ]
    in
    ((ok, wedged, survived), row)
  in
  if not json then
    Printf.printf
      "nemesis: %d members + insider, %d seeds, ladder=%s, bound=%ds\n"
      members seeds
      (if no_degrade then "OFF (baseline)" else "on")
      until_s;
  let results = List.map one (seeds_from 1L seeds) in
  let count p = List.length (List.filter p results) in
  let ok_n = count (fun ((o, _, _), _) -> o) in
  let wedged_n = count (fun ((_, w, _), _) -> w) in
  let survived_n = count (fun ((_, _, s), _) -> s) in
  let all_ok = ok_n = seeds in
  if json then
    print_sweep "nemesis"
      [ ("members", Json.Int members); ("degrade", Json.Bool (not no_degrade)) ]
      (List.map snd results)
      [
        ("seeds", Json.Int seeds);
        ("survived", Json.Int survived_n);
        ("wedged", Json.Int wedged_n);
        ("ok", Json.Bool all_ok);
      ]
  else if no_degrade then
    Printf.printf
      "\n%d/%d seeds wedged without the ladder%s\n" wedged_n seeds
      (if expect_wedge then
         if all_ok then "  [expected: baseline wedges]"
         else "  [FAIL: expected every seed to wedge]"
       else "  [baseline: informational]")
  else
    Printf.printf "\n%d/%d seeds survived the omni-fault schedule\n" survived_n
      seeds;
  if all_ok then 0 else 1

let no_degrade_arg =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:
          "Disable the degraded-mode ladder (baseline arm): the first \
           journal write the exhausted disk refuses propagates out of the \
           leader instead of entering the ladder, wedging the run")

let expect_wedge_arg =
  Arg.(
    value & flag
    & info [ "expect-wedge" ]
        ~doc:
          "With --no-degrade: fail unless every seed wedges — keeps the \
           baseline demonstrably load-bearing in CI")

let nemesis_cmd =
  let doc =
    "run the omni-fault soak — lossy links, torn writes, fsync spikes, a \
     write stall, an ENOSPC window, an insider pre-auth flood, a member \
     outage and a leader crash in one seeded schedule — and check the \
     generic end state (view reconverged, all legitimate joins landed, no \
     honest quarantine, durability re-armed, shed records left durable Drop \
     markers, queue bytes bounded)"
  in
  Cmd.v (Cmd.info "nemesis" ~doc)
    Term.(
      const run_nemesis $ members_arg 5 $ seeds_arg 5 $ until_arg 20
      $ no_degrade_arg $ expect_wedge_arg $ json_arg $ verbose_arg
      $ sentinel_profile_arg)

(* --- keys --- *)

let run_keys user password =
  let key = Sym_crypto.Key.long_term ~user ~password in
  Printf.printf "user=%s kind=%s fingerprint=%s\n" user
    (Format.asprintf "%a" Sym_crypto.Key.pp_kind (Sym_crypto.Key.kind key))
    (Sym_crypto.Key.fingerprint key);
  0

let user_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"USER")

let password_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"PASSWORD")

let keys_cmd =
  let doc = "derive and fingerprint a long-term key P_a" in
  Cmd.v (Cmd.info "keys" ~doc) Term.(const run_keys $ user_arg $ password_arg)

(* --- main --- *)

let () =
  let doc = "intrusion-tolerant group management in Enclaves (DSN 2001)" in
  let info = Cmd.info "enclaves" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            session_cmd; attack_cmd; verify_cmd; chaos_cmd; churn_cmd;
            failover_cmd; intrude_cmd; calibrate_cmd; nemesis_cmd;
            crash_matrix_cmd; keys_cmd;
          ]))
