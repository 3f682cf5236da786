type image = {
  journal_image : string option;
  vault_image : string;
  queue_images : (string * string) list option;
}
(* Durable file images captured at a crash — what a restarted process
   actually finds, as opposed to the live structures (which include
   unsynced bytes the crash lost). *)

type totals = {
  leader : Leader.counters;
  eio_retries : int;
  delivery : Delivery.counters;
}

type t = {
  self : Types.agent;
  rng : Prng.Splitmix.t;
  directory : (Types.agent * string) list;
  policy : Leader.policy option;
  disk : Store.Mem.t option;
  fault : Store.Fault.t option;
  backend : Store.Backend.t option;  (* fault-wrapped handle to [disk] *)
  delivery_policy : Delivery.policy option;
  budgets : Delivery.budgets option;
      (* Byte bounds handed to every delivery incarnation; [None] keeps
         the queues unbounded. *)
  sentinel : Sentinel.t option;
      (* One sentinel across incarnations: suspicion must survive a
         restart, so the node threads it into every rebuilt leader. *)
  mutable leader : Leader.t;
  mutable journal : Journal.t option;
  mutable vault : Store.Vault.t option;
  mutable down : bool;
  mutable image : image option;
  mutable banked : totals;  (* every replaced incarnation, summed *)
}

let no_delivery : Delivery.counters =
  {
    queued = 0;
    drained = 0;
    resealed = 0;
    rejected_stale = 0;
    delivered_stale = 0;
    queue_bytes_hwm = 0;
    records_shed = 0;
  }

let add_delivery (a : Delivery.counters) (b : Delivery.counters) :
    Delivery.counters =
  {
    queued = a.queued + b.queued;
    drained = a.drained + b.drained;
    resealed = a.resealed + b.resealed;
    rejected_stale = a.rejected_stale + b.rejected_stale;
    delivered_stale = a.delivered_stale + b.delivered_stale;
    queue_bytes_hwm = max a.queue_bytes_hwm b.queue_bytes_hwm;
    records_shed = a.records_shed + b.records_shed;
  }

let add_leader (a : Leader.counters) (b : Leader.counters) : Leader.counters =
  {
    recoveries = a.recoveries + b.recoveries;
    resyncs_served = a.resyncs_served + b.resyncs_served;
    degraded_entries = a.degraded_entries + b.degraded_entries;
    rearms = a.rearms + b.rearms;
    keydist_retransmits = a.keydist_retransmits + b.keydist_retransmits;
    admin_retransmits = a.admin_retransmits + b.admin_retransmits;
    half_open_gcs = a.half_open_gcs + b.half_open_gcs;
    challenge_retransmits = a.challenge_retransmits + b.challenge_retransmits;
    challenges_failed = a.challenges_failed + b.challenges_failed;
    beacon_retransmits = a.beacon_retransmits + b.beacon_retransmits;
    digests_broadcast = a.digests_broadcast + b.digests_broadcast;
  }

let totals t =
  let b = t.banked and l = t.leader in
  {
    leader = add_leader b.leader (Leader.counters l);
    (* Counted on the disk handle, which outlives incarnations: never
       banked. *)
    eio_retries =
      (match t.backend with Some d -> Store.Backend.eio_retries d | None -> 0);
    delivery =
      add_delivery b.delivery
        (match Leader.delivery l with
        | Some d -> Delivery.counters d
        | None -> no_delivery);
  }

let new_delivery t =
  Option.map
    (fun policy -> Delivery.create ~policy ?budgets:t.budgets ?disk:t.backend ())
    t.delivery_policy

let create ~self ~rng ~directory ?policy ?disk ?faults
    ?delivery:delivery_policy ?budgets ?sentinel ~standby () =
  let fault =
    match (disk, faults) with
    | Some mem, Some config ->
        Some
          (Store.Fault.create ~config ~rng:(Prng.Splitmix.split rng)
             (Store.Mem.handle mem))
    | _ -> None
  in
  let backend =
    match fault with
    | Some f -> Some (Store.Fault.handle f)
    | None -> Option.map Store.Mem.handle disk
  in
  let journal =
    if standby then None
    else Option.map (fun disk -> Journal.create ~disk ()) backend
  in
  let vault = Option.map (fun disk -> Store.Vault.create ~disk ()) backend in
  let delivery =
    if standby then None
    else
      Option.map
        (fun policy -> Delivery.create ~policy ?budgets ?disk:backend ())
        delivery_policy
  in
  let leader =
    Leader.create ~self ~rng ~directory ?policy ?journal ?vault ?delivery
      ?sentinel ()
  in
  {
    self;
    rng;
    directory;
    policy;
    disk;
    fault;
    backend;
    delivery_policy;
    budgets;
    sentinel;
    leader;
    journal;
    vault;
    down = false;
    image = None;
    banked =
      {
        leader = Leader.fresh_counters ();
        eio_retries = 0;
        delivery = no_delivery;
      };
  }

let leader t = t.leader
let journal t = t.journal
let vault t = t.vault
let fault t = t.fault
let down t = t.down

(* The one place an incarnation is replaced, so its counters are
   banked exactly once — on a crash-free restart too. The ladder state
   itself dies with the automaton: a new incarnation starts Healthy,
   re-probes storage and re-degrades if the pressure holds. *)
let replace t ~journal leader =
  t.banked <- totals t;
  t.journal <- journal;
  t.leader <- leader

let serve t =
  let journal = Option.map (fun disk -> Journal.create ~disk ()) t.backend in
  let delivery = new_delivery t in
  replace t ~journal
    (Leader.create ~self:t.self ~rng:t.rng ~directory:t.directory
       ?policy:t.policy ?journal ?vault:t.vault ?delivery ?sentinel:t.sentinel
       ())

let standby t ~journal_prefix =
  (match t.journal with
  | Some j ->
      let bytes = Journal.contents j in
      let keep = min journal_prefix (String.length bytes) in
      ignore (Journal.recover ?disk:t.backend (String.sub bytes 0 keep))
  | None -> ());
  replace t ~journal:None
    (Leader.create ~self:t.self ~rng:t.rng ~directory:t.directory
       ?policy:t.policy ?vault:t.vault ?sentinel:t.sentinel ())

let crash t =
  if not t.down then begin
    t.down <- true;
    match t.disk with
    | None -> ()
    | Some mem ->
        let durable file =
          Option.value ~default:"" (Store.Mem.durable_of mem file)
        in
        t.image <-
          Some
            {
              journal_image =
                Option.map (fun j -> durable (Journal.file j)) t.journal;
              vault_image = durable Store.Vault.default_file;
              queue_images =
                Option.map
                  (fun d ->
                    List.map (fun (file, _) -> (file, durable file))
                      (Delivery.files d))
                  (Leader.delivery t.leader);
            }
  end

type restarted = {
  status : Journal.status;
  frames : Wire.Frame.t list;
  crash_image : bool;
}

let restart ?journal ?queues ?beacons ~warm t =
  let image = t.image in
  (* Explicit bytes (a replica, or a test feeding a tampered journal)
     win; then the durable crash image; the live buffer is the last
     resort (restart without a crash). *)
  let bytes, crash_image =
    match (journal, image, t.journal) with
    | Some b, _, _ -> (b, false)
    | None, Some { journal_image = Some b; _ }, _ -> (b, true)
    | None, _, Some j -> (Journal.contents j, false)
    | None, _, None -> invalid_arg "Node.restart: no journal bytes"
  in
  t.image <- None;
  (* The vault is re-opened from its durable image, not the live
     structure — a put whose fsync was dropped must not survive. *)
  (match t.backend with
  | Some disk ->
      let vault_image =
        match (image, t.vault) with
        | Some i, _ -> i.vault_image
        | None, Some v -> Store.Vault.contents v
        | None, None -> ""
      in
      t.vault <- Some (Store.Vault.of_bytes ~disk vault_image)
  | None -> ());
  (* The queues follow the same discipline, so acknowledged deliveries
     survive and unacknowledged ones re-drain. *)
  let delivery =
    Option.map
      (fun policy ->
        let images =
          match (queues, image, Leader.delivery t.leader) with
          | Some q, _, _ -> q
          | None, Some { queue_images = Some q; _ }, _ -> q
          | None, _, Some d -> Delivery.files d
          | None, _, None -> []
        in
        Delivery.of_images ~policy ?budgets:t.budgets ?disk:t.backend images)
      t.delivery_policy
  in
  let vault = t.vault and sentinel = t.sentinel and policy = t.policy in
  let self = t.self and rng = t.rng and directory = t.directory in
  let journal, status, (leader, frames) =
    if warm then
      let j, state, status = Journal.recover ?disk:t.backend bytes in
      ( j,
        status,
        Leader.recover ~self ~rng ~directory ?policy ~journal:j ?vault
          ?delivery ?sentinel ~state () )
    else
      (* Replay without writing: no journalled session is trusted, but
         the surviving bytes still pin the epoch floor and stamp the
         cold-restart beacons. *)
      let recs, status = Journal.replay bytes in
      let j = Journal.create ?disk:t.backend () in
      ( j,
        status,
        Leader.cold_recover ~self ~rng ~directory ?policy ~journal:j ?vault
          ?delivery ?sentinel ?beacons ~state:(Journal.state_of_records recs)
          () )
  in
  replace t ~journal:(Some journal) leader;
  t.down <- false;
  { status; frames; crash_image }
