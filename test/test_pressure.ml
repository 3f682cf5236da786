(* Properties of the resource-pressure machinery: the delivery byte
   budgets (shedding is always covered by a durable [Drop] marker, the
   ack floor never regresses) and the leader's degraded-mode ladder
   (monotone descent inside a pressure episode, exactly one recovery
   to [Healthy] once space returns). *)

open Enclaves
module Q = Store.Queue
module A = Wire.Admin
module L = Leader

let gk epoch = A.New_group_key { key = String.make 32 'k'; epoch }

(* Replay a queue image to its post-recovery state. *)
let state_of image =
  let _, state, _ = Q.recover image in
  state

let pending_seqs (state : Q.state) =
  List.map (fun (e : Q.entry) -> e.Q.seq) state.Q.pending

(* --- shedding: durable Drop markers, no floor regression --- *)

(* Drive a budgeted, disk-backed delivery layer through an enqueue
   storm with an ENOSPC window in the middle. Afterwards, with space
   restored and [flush] run:

   - the durable image of every queue must replay to exactly the live
     state — a shed record missing its [Drop] marker would resurrect
     on replay and break the equality;
   - no queue's durable floor may ever regress;
   - every byte bound holds on the durable images. *)
let shed_storm seed =
  let rng = Prng.Splitmix.create (Int64.of_int seed) in
  let mem = Store.Mem.create () in
  let fault = Store.Fault.create ~rng:(Prng.Splitmix.split rng) (Store.Mem.handle mem) in
  let backend = Store.Fault.handle fault in
  let budgets =
    { Delivery.per_member_bytes = Some 256; global_bytes = Some 700 }
  in
  let d = Delivery.create ~budgets ~disk:backend () in
  let members = [ "a"; "b"; "c" ] in
  let floors = Hashtbl.create 4 in
  let floor_ok = ref true in
  let check_floors () =
    List.iter
      (fun m ->
        let file = Delivery.file_of_member m in
        match Store.Backend.read backend ~file with
        | None -> ()
        | Some image ->
            let f = (state_of image).Q.floor in
            let prev = Option.value ~default:(-1) (Hashtbl.find_opt floors m) in
            if f < prev then floor_ok := false;
            Hashtbl.replace floors m (max prev f))
      members
  in
  let n = 30 + Prng.Splitmix.next_int rng 30 in
  let squeeze_at = 10 + Prng.Splitmix.next_int rng 10 in
  let release_at = squeeze_at + 5 + Prng.Splitmix.next_int rng 10 in
  let shed () = (Delivery.counters d).Delivery.records_shed in
  (* The random acks can clear each queue as fast as it fills, so that
     [n] steps shed nothing; such a storm runs on without acks until the
     budgets bite (at most 400 steps in all), so no run passes
     vacuously. *)
  let rec storm i =
    if i < n || (shed () = 0 && i < 400) then begin
      if i = squeeze_at then
        Store.Fault.set_space_budget fault (Some (Store.Fault.bytes_used fault + 40));
      if i = release_at then Store.Fault.set_space_budget fault None;
      let m = List.nth members (Prng.Splitmix.next_int rng 3) in
      Delivery.enqueue d ~member:m ~epoch:i (gk i);
      (* Random acks keep the floors moving so regression is observable. *)
      if i < n && Prng.Splitmix.next_int rng 4 = 0 then
        Delivery.ack d ~member:m ~upto:(1 + Prng.Splitmix.next_int rng (i + 1));
      check_floors ();
      storm (i + 1)
    end
  in
  storm 0;
  Store.Fault.set_space_budget fault None;
  let flushed = Delivery.flush d in
  let durable_matches_live =
    List.for_all
      (fun (file, live) ->
        match Store.Backend.read backend ~file with
        | None -> String.length live = 0
        | Some durable -> state_of durable = state_of live)
      (Delivery.files d)
  in
  let bounds_hold =
    Delivery.total_bytes d <= 700
    && List.for_all
         (fun (_, live) -> String.length live <= 256)
         (Delivery.files d)
  in
  flushed
  && (not (Delivery.dirty d))
  && durable_matches_live && bounds_hold && !floor_ok
  && shed () > 0 (* the storm must actually bite for the run to count *)

(* --- ladder: monotone descent, single recovery --- *)

(* A leader over a fault-wrapped disk, driven through rekeys with an
   ENOSPC clamp in the middle. While the clamp holds, the mode rank
   must never decrease (one-way down inside the episode) and re-arm
   probes must fail; with space restored one probe recovers [Healthy]
   and [rearms] lands at exactly 1. *)
let ladder_episode seed =
  let rng = Prng.Splitmix.create (Int64.of_int seed) in
  let mem = Store.Mem.create () in
  let fault = Store.Fault.create ~rng:(Prng.Splitmix.split rng) (Store.Mem.handle mem) in
  let backend = Store.Fault.handle fault in
  let journal = Journal.create ~disk:backend () in
  let vault = Store.Vault.create ~disk:backend () in
  (* No byte budgets here: this property isolates the ladder's
     response to DISK pressure, so shedding (a budget response) must
     not fire during the healthy pre-phase. *)
  let delivery = Delivery.create ~disk:backend () in
  let directory = [ ("a", "a-pw"); ("b", "b-pw") ] in
  let t =
    L.create ~self:"leader" ~rng:(Prng.Splitmix.split rng) ~directory ~journal
      ~vault ~delivery ()
  in
  (* Traffic for an offline member keeps the queue — and the disk
     mirrors — under write pressure during the clamp. *)
  L.mark_offline t "a";
  let monotone = ref true in
  let last_rank = ref (L.mode_rank (L.mode t)) in
  let pre = 3 + Prng.Splitmix.next_int rng 4 in
  for _ = 0 to pre - 1 do
    ignore (L.rekey t)
  done;
  if L.mode t <> L.Healthy then monotone := false;
  Store.Fault.set_space_budget fault (Some (Store.Fault.bytes_used fault + 30));
  (* One-way down: without a re-arm probe, pressure can only push the
     rank up (compactions that succeed mid-clamp heal mirrors, never
     the mode). *)
  let clamped = 5 + Prng.Splitmix.next_int rng 6 in
  for _ = 0 to clamped - 1 do
    ignore (L.rekey t);
    let r = L.mode_rank (L.mode t) in
    if r < !last_rank then monotone := false;
    last_rank := r
  done;
  let descended = L.mode t <> L.Healthy in
  Store.Fault.set_space_budget fault None;
  let recovered = L.try_rearm t in
  descended && !monotone && recovered
  && L.mode t = L.Healthy
  && L.durability_armed t
  && (L.counters t).L.rearms = 1
  && (L.counters t).L.degraded_entries >= 1
  (* Re-arming on a healthy ladder is a no-op probe, not a second
     recovery. *)
  && L.try_rearm t
  && (L.counters t).L.rearms = 1

(* --- degraded-mode crash matrix --- *)

let test_crash_matrix_degraded () =
  let r = Crash_matrix.run_degraded () in
  List.iter
    (fun v -> Format.printf "%a@." Crash_matrix.pp_violation v)
    r.Crash_matrix.violations;
  Alcotest.(check int)
    "no violations" 0
    (List.length r.Crash_matrix.violations);
  Alcotest.(check bool) "images enumerated" true (r.Crash_matrix.images > 50);
  Alcotest.(check bool)
    "armed checkpoints verified" true
    (r.Crash_matrix.checkpoints > 5)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"shed records always leave durable Drop markers"
      ~count:40
      QCheck.(int_range 1 100_000)
      shed_storm;
    QCheck.Test.make
      ~name:"ladder descends monotonically and recovers Healthy exactly once"
      ~count:40
      QCheck.(int_range 1 100_000)
      ladder_episode;
  ]

let suite =
  [
    ( "pressure (budgets and ladder)",
      Alcotest.test_case "degraded-mode crash matrix passes" `Quick
        test_crash_matrix_degraded
      :: List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests );
  ]
