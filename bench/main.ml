(* Benchmark harness: one Bechamel test (or test family) per
   experiment in DESIGN.md §4.

   The paper has no performance tables — its artifacts are protocol
   figures and verification results — so these benches measure the
   cost of every reproduced artifact: the crypto substrate, the field
   algebra, both protocols' handshakes and group operations, the four
   attack scenarios, and the model checker itself. EXPERIMENTS.md
   records a reference run.

   This harness is the one writer of BENCH_results.json, which holds
   only its timing rows; bench/diff.ml is the one reader.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

let rng0 = Prng.Splitmix.create 99L

(* --- E11: crypto micro-benches --- *)

let key16 = Byteskit.Hex.decode_exn "000102030405060708090a0b0c0d0e0f"
let msg_64 = String.make 64 'm'
let msg_1k = String.make 1024 'p'

(* 64 B is the rekey frame size, where the per-call cost dominates;
   1 KiB is the relay body, where the per-byte cost does. *)
let crypto_tests =
  let sip_key = Sym_crypto.Siphash.key_of_string key16 in
  let cipher = Sym_crypto.Feistel.of_key key16 in
  let block = String.sub msg_64 0 16 in
  let aead_key = Sym_crypto.Key.of_raw Sym_crypto.Key.Session key16 in
  let seal msg = Sym_crypto.Aead.seal ~key:aead_key ~iv:"12345678" ~ad:"ad" msg in
  let sealed_64 = seal msg_64 and sealed_1k = seal msg_1k in
  [
    Test.make ~name:"siphash-64B" (Staged.stage (fun () ->
        ignore (Sym_crypto.Siphash.hash sip_key msg_64)));
    Test.make ~name:"feistel-key-schedule" (Staged.stage (fun () ->
        ignore (Sym_crypto.Feistel.of_key key16)));
    Test.make ~name:"feistel-block" (Staged.stage (fun () ->
        ignore (Sym_crypto.Feistel.encrypt_block cipher block)));
    Test.make ~name:"key-of-raw" (Staged.stage (fun () ->
        ignore (Sym_crypto.Key.of_raw Sym_crypto.Key.Session key16)));
    Test.make ~name:"aead-seal-64B" (Staged.stage (fun () -> ignore (seal msg_64)));
    Test.make ~name:"aead-open-64B" (Staged.stage (fun () ->
        ignore (Sym_crypto.Aead.open_ ~key:aead_key ~ad:"ad" sealed_64)));
    Test.make ~name:"aead-seal-1KiB" (Staged.stage (fun () -> ignore (seal msg_1k)));
    Test.make ~name:"aead-open-1KiB" (Staged.stage (fun () ->
        ignore (Sym_crypto.Aead.open_ ~key:aead_key ~ad:"ad" sealed_1k)));
    Test.make ~name:"kdf-password" (Staged.stage (fun () ->
        ignore (Sym_crypto.Kdf.of_password ~user:"alice" ~password:"pw")));
  ]

(* --- E11: field-algebra closures --- *)

let algebra_set n =
  let open Symbolic.Field in
  let fields = ref Set.empty in
  for i = 0 to n - 1 do
    fields :=
      Set.add
        (FCrypt (Ka (i mod 4), cat [ FAgent A; FNonce i; FKey (Ka ((i + 1) mod 4)) ]))
        !fields
  done;
  Set.add (FKey (Ka 0)) !fields

let algebra_tests =
  let s32 = algebra_set 32 and s128 = algebra_set 128 in
  let open Symbolic in
  [
    Test.make ~name:"analz-32" (Staged.stage (fun () -> ignore (Closure.analz s32)));
    Test.make ~name:"analz-128" (Staged.stage (fun () -> ignore (Closure.analz s128)));
    Test.make ~name:"parts-128" (Staged.stage (fun () -> ignore (Closure.parts s128)));
    Test.make ~name:"synth-membership" (Staged.stage (fun () ->
        ignore
          (Closure.in_synth s32
             Field.(FCrypt (Ka 0, cat [ FAgent A; FNonce 1; FNonce 2 ])))));
    Test.make ~name:"ideal-membership" (Staged.stage (fun () ->
        ignore
          (Closure.in_ideal
             Field.(Set.of_list [ FKey (Ka 0); FKey Pa ])
             Field.(FCrypt (Ka 3, cat [ FNonce 1; FKey (Ka 0) ])))));
  ]

(* --- E1/E2/E3: protocol scenarios over the simulated network --- *)

let directory n =
  List.init n (fun i ->
      let name = Printf.sprintf "user%d" i in
      (name, name ^ "-pw"))

let improved_cluster ?policy n =
  let d =
    Enclaves.Driver.Improved.create ~seed:(Prng.Splitmix.next rng0) ?policy
      ~leader:"leader" ~directory:(directory n) ()
  in
  List.iter
    (fun (name, _) ->
      Enclaves.Driver.Improved.join d name;
      ignore (Enclaves.Driver.Improved.run d))
    (directory n);
  d

let protocol_tests =
  [
    (* E2/E3: one full improved handshake (member + leader steps). *)
    Test.make ~name:"improved-handshake" (Staged.stage (fun () ->
        let d =
          Enclaves.Driver.Improved.create ~seed:(Prng.Splitmix.next rng0)
            ~leader:"leader" ~directory:(directory 1) ()
        in
        Enclaves.Driver.Improved.join d "user0";
        ignore (Enclaves.Driver.Improved.run d)));
    Test.make ~name:"legacy-handshake" (Staged.stage (fun () ->
        let d =
          Enclaves.Driver.Legacy.create ~seed:(Prng.Splitmix.next rng0)
            ~leader:"leader" ~directory:(directory 1) ()
        in
        Enclaves.Driver.Legacy.join d "user0";
        ignore (Enclaves.Driver.Legacy.run d)));
    (* E10: one nonce-chained admin round trip. *)
    Test.make ~name:"admin-roundtrip" (Staged.stage (fun () ->
        let d = improved_cluster 1 in
        Enclaves.Driver.Improved.dispatch_leader d
          (Enclaves.Leader.enqueue_admin
             (Enclaves.Driver.Improved.leader d)
             "user0" (Wire.Admin.Notice "bench"));
        ignore (Enclaves.Driver.Improved.run d)));
    (* E15: the public-key variant of the handshake (footnote 1). *)
    Test.make ~name:"pk-handshake" (Staged.stage (fun () ->
        let rng = Prng.Splitmix.create (Prng.Splitmix.next rng0) in
        let lid = Enclaves.Pk_auth.generate "leader" rng in
        let aid = Enclaves.Pk_auth.generate "alice" rng in
        let leader =
          Enclaves.Pk_auth.leader lid
            ~directory:[ ("alice", Enclaves.Pk_auth.pub aid) ]
            ~rng ()
        in
        let alice =
          Enclaves.Pk_auth.member aid ~leader:"leader"
            ~leader_pub:(Enclaves.Pk_auth.pub lid) ~rng
        in
        let frames = ref (Enclaves.Member.join alice) in
        while !frames <> [] do
          frames :=
            List.concat_map
              (fun (f : Wire.Frame.t) ->
                let bytes = Wire.Frame.encode f in
                if f.Wire.Frame.recipient = "leader" then
                  Enclaves.Leader.receive leader bytes
                else Enclaves.Member.receive alice bytes)
              !frames
        done));
    (* E1: app multicast through the leader to 8 members. *)
    Test.make ~name:"relay-multicast-8" (Staged.stage (fun () ->
        let d = improved_cluster 8 in
        Enclaves.Driver.Improved.send_app d "user0" "payload";
        ignore (Enclaves.Driver.Improved.run d)));
  ]

(* --- E12: rekey scaling (leader is the bottleneck, §6) --- *)

let rekey_tests =
  List.map
    (fun n ->
      Test.make ~name:(Printf.sprintf "rekey-N=%d" n) (Staged.stage (fun () ->
          let d = improved_cluster n in
          Enclaves.Driver.Improved.rekey d;
          ignore (Enclaves.Driver.Improved.run d))))
    [ 2; 8; 32 ]

(* Ablation: rekey-on-join policy doubles admin traffic at join time. *)
let policy_ablation_tests =
  let join_all policy =
    let d = improved_cluster ~policy 8 in
    ignore (Enclaves.Driver.Improved.run d)
  in
  [
    Test.make ~name:"join8-rekey-on-join" (Staged.stage (fun () ->
        join_all { Enclaves.Leader.rekey_on_join = true; rekey_on_leave = true; degrade = true }));
    Test.make ~name:"join8-static-key" (Staged.stage (fun () ->
        join_all { Enclaves.Leader.rekey_on_join = false; rekey_on_leave = false; degrade = true }));
  ]

(* --- E5-E7: the attack scenarios --- *)

let attack_tests =
  let open Adversary.Attacks in
  List.concat_map
    (fun (name, f) ->
      [
        Test.make ~name:(name ^ "-legacy") (Staged.stage (fun () ->
            ignore (f Legacy)));
        Test.make ~name:(name ^ "-improved") (Staged.stage (fun () ->
            ignore (f Improved)));
      ])
    [
      ("a1-dos", fun p -> denial_of_service p);
      ("a2-forge-removal", fun p -> forge_mem_removed p);
      ("a3-rekey-replay", fun p -> rekey_replay p);
      ("a4-forced-close", fun p -> forced_disconnect p);
    ]

(* --- E4/E8/E9: the model checker --- *)

let mc_config joins =
  {
    Symbolic.Model.default_config with
    Symbolic.Model.max_joins = joins;
    max_nonces = 8;
    max_admin = 2;
  }

let model_tests =
  let explored = Symbolic.Explore.run ~config:(mc_config 1) () in
  [
    (* Old engine (string-keyed hashtables, cons-list edges) vs the
       interned-id engine, on identical bounds. *)
    Test.make ~name:"explore-1join-baseline" (Staged.stage (fun () ->
        ignore (Symbolic.Explore.Baseline.run ~config:(mc_config 1) ())));
    Test.make ~name:"explore-1join" (Staged.stage (fun () ->
        ignore (Symbolic.Explore.run ~config:(mc_config 1) ())));
    Test.make ~name:"invariants-1join" (Staged.stage (fun () ->
        ignore (Symbolic.Invariants.all explored)));
    Test.make ~name:"properties-1join" (Staged.stage (fun () ->
        ignore (Symbolic.Properties.all explored)));
    Test.make ~name:"diagram-1join" (Staged.stage (fun () ->
        ignore (Symbolic.Diagram.all ~config:(mc_config 1) explored)));
    (* Intruder-power ablation: fresh-atom budget 0 vs 1. *)
    Test.make ~name:"explore-no-intruder-atoms" (Staged.stage (fun () ->
        ignore
          (Symbolic.Explore.run
             ~config:{ (mc_config 1) with Symbolic.Model.intruder_fresh = 0 }
             ())));
  ]

(* Old-vs-new at 2-join bounds, where the state set is big enough for
   the data-structure differences to matter. Only the one-domain run
   is timed: a multi-domain row measures the host's free cores as much
   as the engine. On two cores `verify --jobs 2` explores the default
   bounds faster than `--jobs 1` (EXPERIMENTS.md, "`--jobs` scaling
   shape"). *)
let model_jobs_tests =
  [
    Test.make ~name:"explore-2join-baseline" (Staged.stage (fun () ->
        ignore (Symbolic.Explore.Baseline.run ~config:(mc_config 2) ())));
    Test.make ~name:"explore-2join-jobs1" (Staged.stage (fun () ->
        ignore (Symbolic.Explore.run ~config:(mc_config 2) ~jobs:1 ())));
  ]

(* --- E13: multi-manager failover (the §7 extension) --- *)

let failover_tests =
  let fo_config =
    {
      Enclaves.Failover.heartbeat_period = Netsim.Vtime.of_ms 100;
      failure_timeout = Netsim.Vtime.of_ms 400;
      check_period = Netsim.Vtime.of_ms 100;
      failback_after = Netsim.Vtime.of_ms 800;
      warm_failover = true;
    }
  in
  [
    Test.make ~name:"failover-3mgr-4members" (Staged.stage (fun () ->
        let t =
          Enclaves.Failover.create ~seed:(Prng.Splitmix.next rng0)
            ~config:fo_config ~managers:[ "m0"; "m1"; "m2" ]
            ~directory:(directory 4) ()
        in
        Enclaves.Failover.start t;
        ignore (Enclaves.Failover.run ~until:(Netsim.Vtime.of_ms 600) t);
        Enclaves.Failover.crash_primary t;
        ignore (Enclaves.Failover.run ~until:(Netsim.Vtime.of_s 4) t)));
  ]

(* --- E22: store-and-forward delivery queues --- *)

let delivery_tests =
  let policy = { Enclaves.Delivery.width = 1; on_stale = Enclaves.Delivery.Deliver_stale } in
  let notice i = Wire.Admin.Notice (Printf.sprintf "bench-%d" i) in
  let mem = Store.Mem.create () in
  [
    (* One durable push: append + checksum + write-through. *)
    Test.make ~name:"enqueue-durable" (Staged.stage (fun () ->
        let d =
          Enclaves.Delivery.create ~policy ~disk:(Store.Mem.handle mem) ()
        in
        Enclaves.Delivery.enqueue d ~member:"user0" ~epoch:1 (notice 0)));
    (* Reconnect path: wrap 100 pending records per the window policy. *)
    Test.make ~name:"drain-100" (Staged.stage (fun () ->
        let d = Enclaves.Delivery.create ~policy () in
        for i = 0 to 99 do
          Enclaves.Delivery.enqueue d ~member:"user0" ~epoch:1 (notice i)
        done;
        ignore (Enclaves.Delivery.drain d ~member:"user0" ~current_epoch:1)));
    (* The same drain with every record aged across rekeys: half inside
       the window (re-seal), half beyond it (stale arm). *)
    Test.make ~name:"drain-100-across-rekey" (Staged.stage (fun () ->
        let d = Enclaves.Delivery.create ~policy () in
        for i = 0 to 99 do
          Enclaves.Delivery.enqueue d ~member:"user0"
            ~epoch:(if i mod 2 = 0 then 2 else 1)
            (notice i)
        done;
        ignore (Enclaves.Delivery.drain d ~member:"user0" ~current_epoch:3)));
  ]

(* --- E25: degraded-path costs under resource pressure --- *)

let degraded_tests =
  let directory =
    List.init 4 (fun i ->
        let n = Printf.sprintf "u%d" i in
        (n, n ^ "-pw"))
  in
  (* A leader over a fault-wrapped disk: [clamp] forbids all growth, so
     the first rekey walks the ladder down to memory-only and every
     later rekey pays the degraded path (memory apply, refused mirror
     skipped) instead of seal-and-journal. *)
  let mk ~clamp () =
    let rng = Prng.Splitmix.create 42L in
    let mem = Store.Mem.create () in
    let fault = Store.Fault.create ~rng (Store.Mem.handle mem) in
    let backend = Store.Fault.handle fault in
    let journal = Enclaves.Journal.create ~disk:backend () in
    let vault = Store.Vault.create ~disk:backend () in
    let delivery = Enclaves.Delivery.create ~disk:backend () in
    let t =
      Enclaves.Leader.create ~self:"leader" ~rng ~directory ~journal ~vault
        ~delivery ()
    in
    if clamp then
      Store.Fault.set_space_budget fault (Some (Store.Fault.bytes_used fault));
    t
  in
  let notice i = Wire.Admin.Notice (Printf.sprintf "bench-%d" i) in
  [
    Test.make ~name:"rekey-8-seal-and-journal" (Staged.stage (fun () ->
        let t = mk ~clamp:false () in
        for _ = 1 to 8 do
          ignore (Enclaves.Leader.rekey t)
        done));
    Test.make ~name:"rekey-8-memory-only" (Staged.stage (fun () ->
        let t = mk ~clamp:true () in
        for _ = 1 to 8 do
          ignore (Enclaves.Leader.rekey t)
        done));
    (* The byte budgets' hot path: pushes past a tight per-member bound,
       each overflow paying drop-marker + compaction. *)
    Test.make ~name:"enqueue-shed-oldest" (Staged.stage (fun () ->
        let d =
          Enclaves.Delivery.create
            ~budgets:
              { Enclaves.Delivery.per_member_bytes = Some 300;
                global_bytes = None }
            ()
        in
        for i = 0 to 49 do
          Enclaves.Delivery.enqueue d ~member:"u0" ~epoch:i (notice i)
        done));
  ]

(* --- E23: online intrusion sentinel --- *)

let sentinel_tests =
  let module S = Enclaves.Sentinel in
  [
    (* Hot path 1: one evidence observation against a warm table —
       decay, weight add, threshold compare. This sits on the leader's
       every frame rejection. *)
    Test.make ~name:"score-update" (Staged.stage (fun () ->
        let sn = S.create ~config:S.default_config () in
        for i = 0 to 31 do
          ignore
            (S.observe sn ~peer:(Printf.sprintf "peer%d" (i land 7))
               S.Preauth_pressure)
        done));
    (* Hot path 2: the admission verdict on the unauthenticated
       handshake surface — token refill + bucket charge + cap check.
       This sits in front of every AuthInitReq the driver queues. *)
    Test.make ~name:"preauth-admission" (Staged.stage (fun () ->
        let sn = S.create ~config:S.default_config () in
        for i = 0 to 31 do
          ignore
            (S.admit_preauth sn
               ~peer:(Printf.sprintf "peer%d" (i land 7))
               ~known:(i land 1 = 0) ~resuming:false ~half_open:2 ())
        done));
  ]

(* --- E14: legacy symbolic model (attack finding) --- *)

let legacy_model_tests =
  [
    Test.make ~name:"legacy-attack-finding" (Staged.stage (fun () ->
        let r = Symbolic.Legacy_model.explore () in
        ignore (Symbolic.Legacy_model.findings r)));
  ]

(* --- netsim baseline --- *)

let netsim_tests =
  [
    Test.make ~name:"sim-10k-events" (Staged.stage (fun () ->
        let sim = Netsim.Sim.create ~seed:(Prng.Splitmix.next rng0) () in
        let count = ref 0 in
        let rec spawn n =
          if n > 0 then
            Netsim.Sim.schedule sim ~delay:(Netsim.Vtime.of_us n) (fun () ->
                incr count;
                spawn (n - 1))
        in
        spawn 10_000;
        ignore (Netsim.Sim.run sim)));
  ]

(* --- Harness --- *)

let groups =
  [
    ("crypto (E11)", crypto_tests);
    ("algebra (E11)", algebra_tests);
    ("protocol (E1-E3,E10)", protocol_tests);
    ("rekey-scaling (E12)", rekey_tests);
    ("policy-ablation (E12)", policy_ablation_tests);
    ("attacks (E5-E7)", attack_tests);
    ("model-checker (E4,E8,E9)", model_tests);
    ("model-checker-jobs (E4)", model_jobs_tests);
    ("failover (E13)", failover_tests);
    ("delivery (E22)", delivery_tests);
    ("degraded-path (E25)", degraded_tests);
    ("sentinel (E23)", sentinel_tests);
    ("legacy-model (E14)", legacy_model_tests);
    ("netsim", netsim_tests);
  ]

(* --smoke: run every bench exactly once (CI sanity check, a couple of
   seconds total) instead of the full measurement quota.
   --fast: a reduced quota good enough for regression *detection*
   (paired with bench/diff.ml), an order of magnitude quicker than the
   reference run.
   --out PATH: write the JSON document somewhere other than
   BENCH_results.json — how a fast run produces a candidate file
   without touching the reference trajectory. *)
let smoke = Array.mem "--smoke" Sys.argv
let fast = Array.mem "--fast" Sys.argv

let out_path =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then "BENCH_results.json"
    else if Sys.argv.(i) = "--out" then Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]

let instances = Instance.[ monotonic_clock ]

let run_group (group_name, tests) =
  Printf.printf "\n== %s ==\n%!" group_name;
  let test = Test.make_grouped ~name:group_name ~fmt:"%s/%s" tests in
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:1 ~quota:(Time.second 0.001) ~stabilize:false ()
    else if fast then
      (* stabilize on: GC state carried over from the previous group is
         the dominant run-to-run noise for the sub-microsecond groups
         this gate watches. *)
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.1) ~stabilize:true ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let measured =
    List.map
      (fun (name, ols_result) ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (v :: _) -> v
          | Some [] | None -> nan
        in
        (name, ns))
      (List.sort compare rows)
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1_000_000.0 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1_000.0 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.1f ns" ns
      in
      Printf.printf "  %-45s %s/op\n%!" name pretty)
    measured;
  (group_name, measured)

(* Machine-readable trajectory: every timed run rewrites the whole
   file, one ns_per_op row per bench, so successive versions can be
   diffed. Bechamel has no JSON backend and we add no deps, so the
   (flat) document is emitted by hand. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
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

let emit_json all =
  let oc = open_out out_path in
  Printf.fprintf oc "{\n  \"schema\": \"enclaves-bench/1\",\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n"
    (if smoke then "smoke" else if fast then "fast" else "full");
  Printf.fprintf oc "  \"results\": [";
  let first = ref true in
  List.iter
    (fun (group, rows) ->
      List.iter
        (fun (name, ns) ->
          Printf.fprintf oc "%s\n    { \"group\": \"%s\", \"name\": \"%s\", \
                             \"ns_per_op\": %s }"
            (if !first then "" else ",")
            (json_escape group) (json_escape name)
            (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns);
          first := false)
        rows)
    all;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n%!" out_path

let () =
  print_endline "Enclaves benchmark harness (one group per DESIGN.md experiment)";
  let all = List.map run_group groups in
  (* Smoke runs sanity-check the scenarios but their single-iteration
     timings are noise — never clobber the full reference run. *)
  if smoke then
    print_endline "\nsmoke mode: BENCH_results.json left untouched"
  else emit_json all;
  print_endline "\ndone."
