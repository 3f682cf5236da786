(* The five workloads. Each builds its inputs from the run seed, runs
   the closed measurement loop of [Measure], checks every operation's
   outputs, and leaves its own metrics in the run record. *)

open Enclaves
module M = Measure
module Vtime = Netsim.Vtime

let vms_since sim t0 = Vtime.to_float_ms (Int64.sub (Netsim.Sim.now sim) t0)

let admitted events =
  List.filter_map (function Member.Admin_accepted x -> Some x | _ -> None) events

let rec is_prefix eq a b =
  match (a, b) with
  | [], _ -> true
  | x :: a, y :: b -> eq x y && is_prefix eq a b
  | _ :: _, [] -> false

(* Sealed frames seen in a run, for the crypto metrics. *)
type sealed = { mutable count : int; mutable bytes : int; mutable sizes : int list }

let new_sealed () = { count = 0; bytes = 0; sizes = [] }

let add_sealed t (f : Wire.Frame.t) =
  match Sym_crypto.Aead.decode f.Wire.Frame.body with
  | Ok s ->
      let len = String.length s.Sym_crypto.Aead.ciphertext in
      t.count <- t.count + 1;
      t.bytes <- t.bytes + len;
      t.sizes <- len :: t.sizes
  | Error _ -> ()

(* Per-operation counts over [ops] operations, and the cost of one
   seal and one open on the run's median sealed-body size. *)
let crypto_metrics t ~ops =
  if t.sizes = [] then []
  else
    let seal, open_ = M.crypto_us (int_of_float (Stats.median (List.map float_of_int t.sizes))) in
    [
      ("crypto.sealed_frames_per_op", float_of_int t.count /. ops);
      ("crypto.sealed_bytes_per_op", float_of_int t.bytes /. ops);
      ("crypto.seal_us", seal);
      ("crypto.open_us", open_);
    ]

(* --- the three workloads on the benchmark's own stack --- *)

let stack_counters =
  [| "events"; "netsim.trace_entries"; "wire.frames"; "wire.bytes"; "store.calls";
     "store.bytes"; "store.fsyncs"; "delivery.queued"; "delivery.drained" |]

type on_stack = {
  s : Stack.t;
  mutable events : int;
  mutable vlat : float list;  (** virtual ms per operation *)
  sealed : sealed;
}

(* Build the stack [reps] times, each build timed as one set-up sample;
   the last one is measured. Each build starts from a collected heap,
   the previous stack already dropped. *)
let build ctx r ~n ~reps =
  let last = ref None in
  for k = 1 to reps do
    last := None;
    Gc.full_major ();
    last := Some (M.setup r (fun () -> Stack.create ~seed:(M.subseed ctx k) ~spans:ctx.M.spans n))
  done;
  let s = Option.get !last in
  ignore (Leader.drain_events s.Stack.leader);
  Array.iter (fun m -> ignore (Member.drain_events m)) s.Stack.members;
  { s; events = 0; vlat = []; sealed = new_sealed () }

let counters w () =
  let s = w.s in
  let d = Delivery.counters s.Stack.delivery in
  Array.map float_of_int
    [| w.events; Netsim.Trace.length (Netsim.Network.trace s.Stack.net); s.Stack.c.frames;
       s.Stack.c.wire_bytes; s.Stack.c.store_calls; s.Stack.c.store_bytes; s.Stack.c.fsyncs;
       d.Delivery.queued; d.Delivery.drained |]

let run w = w.events <- w.events + Stack.run w.s

(* After each operation: tally the sealed frames it sent, which the
   stack collects only while spans are on. *)
let tally w = List.iter (add_sealed w.sealed) (Stack.take_frames w.s)

(* [failed_frac] defaults to failed operations over attempted ones. *)
let finish_stack ?failed_frac r w =
  let crypto = crypto_metrics w.sealed ~ops:(float_of_int (List.length r.M.traced_op_ms)) in
  let failed_frac =
    match failed_frac with
    | Some f -> f
    | None -> float_of_int r.M.failed /. float_of_int (max 1 r.M.attempted)
  in
  r.M.extra <-
    crypto
    @ [
        ("vlat_ms_p50", Stats.median w.vlat);
        ("vlat_ms_p95", Stats.percentile w.vlat 0.95);
        ("members_out",
          float_of_int
            (Array.length w.s.Stack.members - List.length (Leader.members w.s.Stack.leader)));
        ("failed_frac", failed_frac);
      ]

(* Every member's accepted admin list must be a prefix of what the
   leader sent it (§5.4). *)
let prefixes_ok r (s : Stack.t) =
  Array.for_all
    (fun m ->
      let ok =
        is_prefix Wire.Admin.equal (Member.accepted_admin m)
          (Leader.sent_admin s.Stack.leader (Member.self m))
      in
      if not ok then M.note r (Member.self m ^ ": accepted admin is not a prefix of sent");
      ok)
    s.Stack.members

let rekey ctx r =
  let n = if ctx.M.quick then 16 else 128 in
  let w = build ctx r ~n ~reps:(if ctx.M.quick then 1 else 3) in
  let s = w.s in
  let op _ =
    let t0 = Netsim.Sim.now s.Stack.sim in
    Stack.leader_api s (fun () -> Leader.rekey s.Stack.leader);
    run w;
    w.vlat <- vms_since s.Stack.sim t0 :: w.vlat
  in
  let check i =
    tally w;
    ignore (Leader.drain_events s.Stack.leader);
    let e = Stack.epoch s in
    Array.fold_left
      (fun ok m ->
        match admitted (Member.drain_events m) with
        | [ Wire.Admin.New_group_key { epoch; _ } ]
          when epoch = e && Stack.member_epoch m = e ->
            ok
        | _ ->
            M.note r (Printf.sprintf "op %d: %s off epoch %d" i (Member.self m) e);
            false)
      true s.Stack.members
  in
  M.loop ctx r ~min_ops:3 ~heap_at:(if ctx.M.quick then 3 else 200)
    ~counters:(counters w) ~op ~check ();
  if not (prefixes_ok r s) then r.M.failed <- r.M.failed + 1;
  finish_stack r w

let relay ctx r =
  let n = if ctx.M.quick then 8 else 32 in
  let w = build ctx r ~n ~reps:(if ctx.M.quick then 1 else 9) in
  let s = w.s in
  let rng = Prng.Splitmix.create (M.subseed ctx 0) in
  let bodies =
    Array.init 16 (fun _ -> Bytes.unsafe_to_string (Prng.Splitmix.next_bytes rng 1024))
  in
  let missing = ref 0 in
  let op i =
    let t0 = Netsim.Sim.now s.Stack.sim in
    let from = i mod n in
    Stack.member_api s from (fun () ->
        Member.send_app s.Stack.members.(from) bodies.(i mod Array.length bodies));
    run w;
    w.vlat <- vms_since s.Stack.sim t0 :: w.vlat
  in
  let check i =
    tally w;
    ignore (Leader.drain_events s.Stack.leader);
    let from = i mod n and body = bodies.(i mod Array.length bodies) in
    let author = Stack.member_name from in
    let ok = ref true in
    Array.iteri
      (fun k m ->
        let got =
          List.filter
            (function
              | Member.App_received { author = a; body = b } -> a = author && b = body
              | _ -> false)
            (Member.drain_events m)
        in
        if k <> from && List.length got <> 1 then begin
          incr missing;
          ok := false;
          M.note r (Printf.sprintf "op %d: %s missed the message of %s" i (Member.self m) author)
        end)
      s.Stack.members;
    !ok
  in
  M.loop ctx r ~min_ops:3 ~heap_at:(if ctx.M.quick then 3 else 1000)
    ~counters:(counters w) ~op ~check ();
  finish_stack r w
    ~failed_frac:(float_of_int !missing /. float_of_int (max 1 (r.M.attempted * (n - 1))))

let churn ctx r =
  let n = if ctx.M.quick then 16 else 64 in
  let parked = if ctx.M.quick then 4 else 8 in
  let online = n - parked in
  let w = build ctx r ~n ~reps:(if ctx.M.quick then 1 else 5) in
  let s = w.s in
  let leader = s.Stack.leader in
  for k = online to n - 1 do
    Leader.mark_offline leader (Stack.member_name k)
  done;
  let last_seq = Array.make n (-1) in
  let op i =
    let x = i mod online and y = online + (i mod parked) in
    Stack.member_api s x (fun () -> Member.leave s.Stack.members.(x));
    run w;
    let t0 = Netsim.Sim.now s.Stack.sim in
    Stack.member_api s x (fun () -> Member.join s.Stack.members.(x));
    run w;
    w.vlat <- vms_since s.Stack.sim t0 :: w.vlat;
    Stack.leader_api s (fun () -> Leader.mark_online leader (Stack.member_name y));
    run w;
    Stack.leader_api s (fun () ->
        Leader.mark_offline leader (Stack.member_name y);
        [])
  in
  let check i =
    tally w;
    ignore (Leader.drain_events leader);
    let x = i mod online and y = online + (i mod parked) in
    let e = Stack.epoch s in
    let ok = ref true in
    let fail msg =
      ok := false;
      M.note r (Printf.sprintf "op %d: %s" i msg)
    in
    List.iter
      (function
        | Wire.Admin.Queued { seq; _ } ->
            if seq <= last_seq.(y) then fail (Printf.sprintf "%s re-applied seq %d" (Stack.member_name y) seq);
            last_seq.(y) <- seq
        | _ -> ())
      (admitted (Member.drain_events s.Stack.members.(y)));
    Array.iter (fun m -> ignore (Member.drain_events m)) s.Stack.members;
    let keyed k = Member.is_connected s.Stack.members.(k) && Stack.member_epoch s.Stack.members.(k) = e in
    if not (keyed x) then fail (Stack.member_name x ^ " rejoined without the group key");
    if not (keyed y) then fail (Stack.member_name y ^ " drained without the group key");
    !ok
  in
  M.loop ctx r ~min_ops:3 ~heap_at:(if ctx.M.quick then 3 else 100)
    ~counters:(counters w) ~op ~check ();
  if not (prefixes_ok r s) then r.M.failed <- r.M.failed + 1;
  finish_stack r w

(* --- the soak, through Driver.Improved with every plane on --- *)

module D = Driver.Improved

(* The sentinel scores evidence and rate-limits, but its quarantine and
   expulsion thresholds are out of reach: under the default profile
   this soak quarantines honest members in every episode, and under the
   CLI's lenient profile in some (README.md), so no run could pass its
   checks. *)
let score_only =
  { Sentinel.default_config with Sentinel.quarantine_at = Float.infinity; expel_at = Float.infinity }

type episode = {
  d : D.t;
  start : int;  (** virtual second the faulted stretch starts at *)
  mutable sec : int;
  sends : (int, string * string list) Hashtbl.t;  (** seq -> author, recipients *)
  got : (int * string, unit) Hashtbl.t;
  mutable handles : Netsim.Sim.handle list;
  mutable restarted : Vtime.t option;
  mutable reconverge : float option;
}

let soak ctx r =
  let n = 16 in
  let fault_s = if ctx.M.quick then 6 else 30 in
  let crash_at = fault_s / 2 in
  let heal_s = 10 in
  (* The outcome metrics come from the first [scored] episodes, which
     every run completes, so that they depend on the seed alone and not
     on how many episodes the machine's speed fits into the run. *)
  let scored = if ctx.M.quick then 1 else 4 in
  let directory = List.init n (fun i -> (Stack.member_name i, Stack.member_name i ^ "-pw")) in
  let names = Array.of_list (List.map fst directory) in
  (* The tight watchdogs of the churn soak, so members that lost their
     session rejoin within the episode. *)
  let recovery =
    {
      D.default_recovery with
      D.digest_period = Vtime.of_ms 500;
      probe_after = Vtime.of_ms 1500;
      reset_after = Vtime.of_s 3;
    }
  in
  let episodes = ref 0 in
  let seq = ref 0 in
  let events = ref 0 in
  let missing = ref 0 and pairs = ref 0 in
  let reconverge = ref [] and escalations = ref [] and out = ref [] in
  let sealed = new_sealed () in
  let body k filler = Printf.sprintf "m%08d:" k ^ String.sub filler 0 (256 - 10) in
  let create () =
    incr episodes;
    let seed = M.subseed ctx !episodes in
    let d =
      D.create ~seed ~retry:D.default_retry ~recovery ~delivery:Delivery.default_policy
        ~preauth:D.default_preauth ~intrusion:score_only ~leader:Stack.leader_name ~directory ()
    in
    List.iter (fun (who, _) -> D.join d who) directory;
    let rec settle k =
      ignore (D.run ~until:(Vtime.of_ms (100 * k)) d);
      if not (D.view_converged d) && k < 100 then settle (k + 1) else k
    in
    let tenths = settle 1 in
    if not (D.view_converged d) then M.note r "soak: cluster did not converge at set-up";
    (d, (tenths + 9) / 10, seed)
  in
  let begin_episode () =
    let d, start, seed = M.setup r create in
    let sim = D.sim d in
    let ep =
      { d; start; sec = 0; sends = Hashtbl.create 4096; got = Hashtbl.create 65536;
        handles = []; restarted = None; reconverge = None }
    in
    let rng = Prng.Splitmix.create seed in
    let filler = Bytes.unsafe_to_string (Prng.Splitmix.next_bytes rng 256) in
    Netsim.Network.set_faultplan (D.net d)
      (Some (Netsim.Faultplan.make ~default_link:(Netsim.Faultplan.lossy_link 0.05) ()));
    let until = Vtime.of_s (start + fault_s) in
    let rekeys = D.start_periodic_rekey d ~period:(Vtime.of_s 1) ~until () in
    let view = ref (Leader.members (D.leader d)) in
    let next = ref 0 in
    (* Open loop: a send is due every 10 ms whatever the leader's state;
       the author is the next member holding a group key. *)
    let sender =
      Netsim.Sim.every_handle sim ~period:(Vtime.of_ms 10) ~until (fun () ->
          if not (D.leader_down d) then view := Leader.members (D.leader d);
          let rec pick k =
            if k < n then
              let who = names.((!next + k) mod n) in
              if Member.group_key (D.member d who) <> None then begin
                next := (!next + k + 1) mod n;
                Some who
              end
              else pick (k + 1)
            else None
          in
          match pick 0 with
          | None -> ()
          | Some who ->
              incr seq;
              Hashtbl.replace ep.sends !seq (who, List.filter (( <> ) who) !view);
              Spans.wrap ctx.M.spans "driver.api" (fun () -> D.send_app d who (body !seq filler)))
    in
    ep.handles <- [ rekeys; sender ];
    (* One member goes offline every 5 s and comes back 2 s later. *)
    for k = 1 to (fault_s - 1) / 5 do
      let who = names.(Prng.Splitmix.next_int rng n) in
      Netsim.Sim.schedule_at sim ~time:(Vtime.of_s (start + (5 * k))) (fun () -> D.mark_offline d who);
      Netsim.Sim.schedule_at sim ~time:(Vtime.of_s (start + (5 * k) + 2)) (fun () -> D.mark_online d who)
    done;
    D.schedule_leader_crash d ~at:(Vtime.of_s (start + crash_at)) ~restart_after:(Vtime.of_ms 500) ();
    Netsim.Sim.schedule_at sim ~time:(Vtime.of_ms ((1000 * (start + crash_at)) + 500)) (fun () ->
        ep.restarted <- Some (Netsim.Sim.now sim));
    ep
  in
  let current = ref None in
  let reconverged ep =
    let d = ep.d in
    (not (D.leader_down d))
    &&
    match Leader.group_key (D.leader d) with
    | None -> false
    | Some g ->
        Array.for_all
          (fun who ->
            let m = D.member d who in
            Member.is_connected m
            && match Member.group_key m with Some k -> k.Types.epoch = g.Types.epoch | None -> false)
          names
  in
  let close_episode ep =
    let d = ep.d in
    List.iter Netsim.Sim.cancel ep.handles;
    Netsim.Network.set_faultplan (D.net d) None;
    List.iter (fun who -> D.mark_online d who) (D.offline_members d);
    ignore (D.run ~until:(Vtime.of_s (ep.start + ep.sec + heal_s)) d);
    Array.iter
      (fun who ->
        List.iter
          (function
            | Member.App_received { body; _ } ->
                Hashtbl.replace ep.got (int_of_string (String.sub body 1 8), who) ()
            | _ -> ())
          (Member.drain_events (D.member d who)))
      names;
    let members = Leader.members (D.leader d) in
    let gone = List.filter (fun who -> not (List.mem who members)) (Array.to_list names) in
    if !episodes <= scored then begin
      Hashtbl.iter
        (fun k (_, recipients) ->
          List.iter
            (fun who ->
              incr pairs;
              if not (Hashtbl.mem ep.got (k, who)) then incr missing)
            recipients)
        ep.sends;
      out := float_of_int (List.length gone) :: !out;
      (match D.sentinel d with
      | Some sn ->
          let c = Sentinel.counters sn in
          escalations :=
            float_of_int (c.Sentinel.rate_limits + c.Sentinel.quarantines + c.Sentinel.expulsions)
            :: !escalations
      | None -> ());
      Option.iter (fun v -> reconverge := v :: !reconverge) ep.reconverge
    end;
    (* The crypto counts come from the network trace of the faulted
       stretch; walking it is slow, so only traced runs do. *)
    if ctx.M.traced then
      List.iter
        (function
          | Netsim.Trace.Sent { time; payload; _ }
            when Vtime.(Vtime.of_s ep.start <= time) && Vtime.(time < Vtime.of_s (ep.start + ep.sec)) ->
              Result.iter (add_sealed sealed) (Wire.Frame.decode payload)
          | _ -> ())
        (Netsim.Trace.entries (Netsim.Network.trace (D.net d)));
    (* Every member is honest: one left out of the group after the heal
       is a failure of the episode. *)
    if gone <> [] || not (D.view_converged d) then begin
      M.note r
        (Printf.sprintf "soak episode %d: out [%s], view converged %b" !episodes
           (String.concat "," gone) (D.view_converged d));
      r.M.failed <- r.M.failed + 1
    end
  in
  let prepare _ =
    match !current with
    | Some ep when ep.sec < fault_s -> ()
    | prev ->
        Option.iter close_episode prev;
        current := Some (begin_episode ())
  in
  let op _ =
    let ep = Option.get !current in
    let d = ep.d in
    let until = Vtime.of_s (ep.start + ep.sec + 1) in
    let drive until =
      events := !events + Spans.wrap ctx.M.spans "driver.run" (fun () -> D.run ~until d)
    in
    (* From the crash on, run in 50 ms slices until every member is
       back in session on the restarted leader's epoch. *)
    let rec slice t =
      match ep.restarted with
      | Some t0 when reconverged ep -> ep.reconverge <- Some (vms_since (D.sim d) t0)
      | _ ->
          let t = Int64.add t (Vtime.of_ms 50) in
          if Vtime.(t <= until) then begin
            drive t;
            slice t
          end
    in
    if ep.sec >= crash_at && ep.reconverge = None then slice (Vtime.of_s (ep.start + ep.sec));
    drive until;
    ep.sec <- ep.sec + 1
  in
  let check i =
    let ep = Option.get !current in
    let d = ep.d in
    ignore (Leader.drain_events (D.leader d));
    let ok = ref (D.all_prefix_ok d) in
    if not !ok then M.note r (Printf.sprintf "soak op %d: admin prefix violated" i);
    Array.iter
      (fun who ->
        List.iter
          (function
            | Member.App_received { body; _ } ->
                let k = int_of_string_opt (String.sub body 1 8) in
                (match k with
                | Some k when Hashtbl.mem ep.sends k && not (Hashtbl.mem ep.got (k, who)) ->
                    Hashtbl.replace ep.got (k, who) ()
                | _ ->
                    ok := false;
                    M.note r (Printf.sprintf "soak op %d: %s got a duplicate or unsent message" i who))
            | _ -> ())
          (Member.drain_events (D.member d who)))
      names;
    !ok
  in
  let counters () =
    let d = (Option.get !current).d in
    let rs = D.retry_stats d and rc = D.recovery_stats d and ds = D.delivery_stats d in
    Array.map float_of_int
      [| !events; Netsim.Trace.length (Netsim.Network.trace (D.net d));
         rs.D.handshake_retransmits + rs.D.keydist_retransmits + rs.D.admin_retransmits
         + rc.D.challenge_retransmits;
         ds.Netsim.Stats.queued; ds.Netsim.Stats.drained |]
  in
  M.loop ctx r ~min_ops:(scored * fault_s) ~heap_at:fault_s ~prepare ~counters ~op ~check ();
  Option.iter close_episode !current;
  r.M.extra <-
    crypto_metrics sealed ~ops:(float_of_int r.M.attempted)
    @ [
        ("driver.retransmits_per_vsec", M.per_op r "driver.retransmits");
        ("driver.sentinel.escalations", Stats.median !escalations);
        ("reconverge_vms", Stats.median !reconverge);
        ("failed_frac", float_of_int !missing /. float_of_int (max 1 !pairs));
        ("members_out", List.fold_left Float.max 0.0 !out);
      ]

(* --- the symbolic engine --- *)

let verify ctx r =
  let open Symbolic in
  let small = { Model.default_config with Model.max_joins = 1 } in
  let config = if ctx.M.quick then small else Model.default_config in
  for _ = 1 to if ctx.M.quick then 1 else 21 do
    M.setup r (fun () -> ignore (Explore.run ~config:small ()))
  done;
  let edges = ref 0 and states = ref 0 and obligations = ref 0 and failing = ref 0 in
  let reports = ref [] in
  let part name f = Spans.wrap ctx.M.spans ("symbolic." ^ name) f in
  let explored count_states count_edges res =
    states := !states + count_states res;
    edges := !edges + count_edges res;
    res
  in
  let op _ =
    let res =
      part "explore" (fun () ->
          explored Explore.state_count Explore.edge_count (Explore.run ~config ~jobs:1 ()))
    in
    let inv = part "invariants" (fun () -> Invariants.all ~config res) in
    let props = part "properties" (fun () -> Properties.all res) in
    let diag = part "diagram" (fun () -> Diagram.all ~config res) in
    let rec_ =
      part "recovery" (fun () ->
          Recovery.reports (explored Recovery.state_count Recovery.edge_count (Recovery.explore ())))
    in
    let dlv =
      part "delivery_model" (fun () ->
          Delivery_model.reports
            (explored Delivery_model.state_count Delivery_model.edge_count
               (Delivery_model.explore ())))
    in
    let snt =
      part "sentinel_model" (fun () ->
          Sentinel_model.reports
            (explored Sentinel_model.state_count Sentinel_model.edge_count
               (Sentinel_model.explore ())))
    in
    reports := List.concat [ inv; props; diag; rec_; dlv; snt ]
  in
  let check i =
    let bad = List.filter (fun rep -> not rep.Invariants.holds) !reports in
    obligations := !obligations + List.length !reports;
    failing := !failing + List.length bad;
    List.iter (fun rep -> M.note r (Printf.sprintf "pass %d: %s fails" i rep.Invariants.name)) bad;
    bad = [] && !reports <> []
  in
  M.loop ctx r ~min_ops:1 ~counters:(fun () -> [| float_of_int !edges |]) ~op ~check ();
  (* A pass keeps nothing once it ends, so the heap is read with one
     more state graph held, as [verify] holds it while it reports. *)
  let res = Explore.run ~config ~jobs:1 () in
  M.read_heap r;
  ignore (Sys.opaque_identity res);
  let passes = float_of_int r.M.attempted in
  r.M.extra <-
    [
      ("symbolic.states", float_of_int !states /. passes);
      ("symbolic.edges", float_of_int !edges /. passes);
      ("netsim.events_per_op", 0.0);
      ("failed_frac", float_of_int !failing /. float_of_int (max 1 !obligations));
    ]

(* Why each workload was chosen is in README.md and BENCHMARK.json. *)
type t = { name : string; counters : string array; run : M.ctx -> M.run -> unit }

let soak_counters =
  [| "events"; "netsim.trace_entries"; "driver.retransmits"; "delivery.queued"; "delivery.drained" |]

let all =
  [
    { name = "rekey-n128"; counters = stack_counters; run = rekey };
    { name = "relay-1k-n32"; counters = stack_counters; run = relay };
    { name = "churn-n64"; counters = stack_counters; run = churn };
    { name = "soak-n16"; counters = soak_counters; run = soak };
    { name = "verify"; counters = [| "events" |]; run = verify };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
