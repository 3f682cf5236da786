(* Store-and-forward delivery: one durable {!Store.Queue} per offline
   member, plus the epoch-window policy that decides what happens to a
   record queued under a group epoch that has since rotated.

   The queues hold {e plaintext} admin payloads (the encoded
   [Wire.Admin.t]); nothing here is a secret — the durable image is
   protected the same way the leader journal is (integrity checksums,
   crash-tolerant replay), and confidentiality is applied at fire
   time, when the leader seals the drained record under the member's
   {e live} session key. That is what makes the "re-seal" arm of the
   policy sound: a record inside the window is not decrypted and
   re-encrypted — it was never sealed for the wire while queued, so
   delivering it under the current [K_a]/epoch is a fresh seal with no
   old-key material exposed. *)

type stale_action = Deliver_stale | Reject

type policy = { width : int; on_stale : stale_action }

let default_policy = { width = 1; on_stale = Reject }

type counters = {
  mutable queued : int;
  mutable drained : int;
  mutable resealed : int;
  mutable rejected_stale : int;
  mutable delivered_stale : int;
  mutable queue_bytes_hwm : int;
  mutable records_shed : int;
}

let fresh_counters () =
  {
    queued = 0;
    drained = 0;
    resealed = 0;
    rejected_stale = 0;
    delivered_stale = 0;
    queue_bytes_hwm = 0;
    records_shed = 0;
  }

type budgets = { per_member_bytes : int option; global_bytes : int option }

let no_budgets = { per_member_bytes = None; global_bytes = None }

type t = {
  policy : policy;
  budgets : budgets;
  compact_every : int;
  disk : Store.Backend.t option;
  queues : (Types.agent, Store.Queue.t) Hashtbl.t;
  counters : counters;
  mutable ship : (file:string -> string -> unit) option;
  (* Degraded-mode bookkeeping: [durable] mirrors the leader's ladder
     (off = queues evolve in memory only); [dirty] names members whose
     durable image is behind memory — a shed whose [Drop] marker could
     not land, or any mutation made while durability was off. [flush]
     compacts them back to a durable snapshot at re-arm. *)
  mutable durable : bool;
  dirty : (Types.agent, unit) Hashtbl.t;
}

let create ?(policy = default_policy) ?(budgets = no_budgets)
    ?(compact_every = 64) ?disk () =
  if policy.width < 0 then
    invalid_arg "Delivery.create: window width must be >= 0";
  (match (budgets.per_member_bytes, budgets.global_bytes) with
  | Some b, _ when b < 0 ->
      invalid_arg "Delivery.create: per-member byte budget must be >= 0"
  | _, Some b when b < 0 ->
      invalid_arg "Delivery.create: global byte budget must be >= 0"
  | _ -> ());
  {
    policy;
    budgets;
    compact_every;
    disk;
    queues = Hashtbl.create 16;
    counters = fresh_counters ();
    ship = None;
    durable = true;
    dirty = Hashtbl.create 4;
  }

let policy t = t.policy
let budgets t = t.budgets
let counters t = t.counters
let set_ship t f = t.ship <- f

let file_prefix = "queue-"
let file_of_member who = file_prefix ^ who

let member_of_file file =
  let n = String.length file_prefix in
  if String.length file > n && String.sub file 0 n = file_prefix then
    Some (String.sub file n (String.length file - n))
  else None

let total_bytes t =
  Hashtbl.fold (fun _ q acc -> acc + Store.Queue.size q) t.queues 0

let after_mutation t q =
  let bytes = total_bytes t in
  if bytes > t.counters.queue_bytes_hwm then
    t.counters.queue_bytes_hwm <- bytes;
  match t.ship with
  | None -> ()
  | Some ship -> ship ~file:(Store.Queue.file q) (Store.Queue.contents q)

let attach t q =
  Store.Queue.set_observer q (Some (fun _ev -> after_mutation t q));
  q

(* Run one durable mutation of [member]'s queue, absorbing a refused
   disk mirror. Memory mutates first in {!Store.Queue}, so a caught
   [No_space]/[Stalled] leaves memory authoritative and only the
   durable image behind — exactly what [dirty] records for {!flush}
   to repair at re-arm. A mutation made while durability is off is
   behind by construction. *)
let guarded t member f =
  (try f ()
   with Store.Backend.No_space _ | Store.Backend.Stalled _ ->
     Hashtbl.replace t.dirty member ();
     (* Disarm this queue's mirror until the re-arm flush: the buffer
        and the durable file have diverged, so a later incremental
        append at a buffer offset that happens to fall INSIDE the
        stale image would overwrite it mid-file — corrupting a
        previously valid image instead of leaving it merely stale. *)
     match Hashtbl.find_opt t.queues member with
     | Some q -> Store.Queue.set_durable q false
     | None -> ());
  if not t.durable then Hashtbl.replace t.dirty member ()

let queue_of t who =
  match Hashtbl.find_opt t.queues who with
  | Some q -> q
  | None ->
      let make ~durable =
        Store.Queue.create ~compact_every:t.compact_every ?disk:t.disk
          ~file:(file_of_member who) ~durable ()
      in
      let q =
        if not t.durable then (
          Hashtbl.replace t.dirty who ();
          make ~durable:false)
        else
          try make ~durable:true
          with Store.Backend.No_space _ | Store.Backend.Stalled _ ->
            (* The initial empty-image publish was refused: build the
               queue with the mirror disarmed and let re-arm publish
               it. *)
            Hashtbl.replace t.dirty who ();
            make ~durable:false
      in
      Hashtbl.replace t.queues who (attach t q);
      q

(* --- byte budgets and shedding --- *)

let over_member t q =
  match t.budgets.per_member_bytes with
  | None -> false
  | Some b -> Store.Queue.size q > b

let over_global t =
  match t.budgets.global_bytes with
  | None -> false
  | Some b -> total_bytes t > b

(* Drop the oldest pending record and compact so the image genuinely
   shrinks (a bare [Drop] record *extends* the log). The drop and the
   compaction are guarded separately: if the marker's mirror is
   refused, the compaction must still fold memory so the budget check
   makes progress. *)
let shed_oldest t member q =
  match Store.Queue.pending q with
  | [] -> false
  | oldest :: _ ->
      guarded t member (fun () ->
          Store.Queue.drop q ~seq:oldest.Store.Queue.seq);
      guarded t member (fun () -> Store.Queue.compact q);
      t.counters.records_shed <- t.counters.records_shed + 1;
      true

(* A bloated log can exceed a byte bound while its snapshot would fit
   — resolved Push/Ack/Drop records cost bytes but carry no pending
   data. Fold them away before paying with real records. (The +1
   allows for the snapshot record itself: a freshly compacted queue is
   never "bloated".) *)
let compact_if_bloated t member q =
  if Store.Queue.records q > Store.Queue.depth q + 1 then
    guarded t member (fun () -> Store.Queue.compact q)

let rec shed_member t member q =
  if over_member t q then begin
    compact_if_bloated t member q;
    if over_member t q && shed_oldest t member q then shed_member t member q
  end

(* Globally oldest-first: the victim is the queue whose oldest pending
   record was sealed under the lowest epoch (member name breaks ties
   deterministically). *)
let global_victim t =
  Hashtbl.fold
    (fun member q best ->
      match Store.Queue.pending q with
      | [] -> best
      | e :: _ -> (
          let age = (e.Store.Queue.epoch, member) in
          match best with
          | Some (bage, _, _) when bage <= age -> best
          | _ -> Some (age, member, q)))
    t.queues None

let rec shed_global t =
  if over_global t then
    match global_victim t with
    | None -> ()
    | Some (_, member, q) -> if shed_oldest t member q then shed_global t

let enforce_budgets t =
  let before = t.counters.records_shed in
  if over_global t then
    Hashtbl.iter (fun member q -> compact_if_bloated t member q) t.queues;
  Hashtbl.iter (fun member q -> shed_member t member q) t.queues;
  shed_global t;
  t.counters.records_shed - before

let enqueue t ~member ~epoch x =
  let q = queue_of t member in
  guarded t member (fun () ->
      ignore (Store.Queue.push q ~epoch (Wire.Admin.encode x)));
  t.counters.queued <- t.counters.queued + 1;
  ignore (enforce_budgets t)

(* The policy decision, per record. [age] is how many epochs the group
   rotated past the one the record was queued under: [age <= 0] is
   current traffic, [0 < age <= width] is inside the window (delivered
   under the live session key), and beyond the window the record is
   either delivered flagged stale (no state effect at the member, an
   [Audit] anomaly on the trace) or durably dropped. The boundary
   [age = width] is inclusive: it drains fresh. The [resealed] counter
   is bumped where the seal physically happens — [Leader.fire_admin],
   which freshens any wrapped key the group rotated past — so a record
   aged at drain time and one overtaken between drain and fire count
   once each, not twice. *)
let drain t ~member ~current_epoch =
  match Hashtbl.find_opt t.queues member with
  | None -> []
  | Some q ->
      let decide (e : Store.Queue.entry) =
        match Wire.Admin.decode e.Store.Queue.payload with
        | Error _ ->
            (* Undecodable payloads cannot be delivered; drop durably
               so replay never re-presents them. *)
            guarded t member (fun () ->
                Store.Queue.drop q ~seq:e.Store.Queue.seq);
            None
        | Ok x ->
            let age = current_epoch - e.Store.Queue.epoch in
            if age <= t.policy.width then begin
              t.counters.drained <- t.counters.drained + 1;
              Some
                (Wire.Admin.Queued
                   { seq = e.Store.Queue.seq; stale = false; x })
            end
            else
              match t.policy.on_stale with
              | Deliver_stale ->
                  t.counters.delivered_stale <-
                    t.counters.delivered_stale + 1;
                  t.counters.drained <- t.counters.drained + 1;
                  Some
                    (Wire.Admin.Queued
                       { seq = e.Store.Queue.seq; stale = true; x })
              | Reject ->
                  guarded t member (fun () ->
                      Store.Queue.drop q ~seq:e.Store.Queue.seq);
                  t.counters.rejected_stale <-
                    t.counters.rejected_stale + 1;
                  None
      in
      List.filter_map decide (Store.Queue.pending q)

(* The [Ack] record lands after the last budget check, so it can leave
   the image a few bytes over the member's bound. Folding the log brings
   it back under: an ack removes pending records and adds none. *)
let ack t ~member ~upto =
  match Hashtbl.find_opt t.queues member with
  | None -> ()
  | Some q ->
      guarded t member (fun () -> Store.Queue.ack q ~upto);
      if over_member t q then compact_if_bloated t member q

let clear t ~member =
  match Hashtbl.find_opt t.queues member with
  | None -> ()
  | Some q ->
      List.iter
        (fun (e : Store.Queue.entry) ->
          guarded t member (fun () ->
              Store.Queue.drop q ~seq:e.Store.Queue.seq))
        (Store.Queue.pending q);
      guarded t member (fun () -> Store.Queue.compact q)

(* Quarantine policy: durably drop the member's entire backlog. Unlike
   [clear] (housekeeping after a clean close) this is a containment
   action with a caller-visible count — a quarantined insider's queue
   must not survive to be drained by anyone, including a promoted
   successor (the emptied image ships to backups like any mutation). *)
let purge t ~member =
  match Hashtbl.find_opt t.queues member with
  | None -> 0
  | Some q ->
      let pending = Store.Queue.pending q in
      let n = List.length pending in
      List.iter
        (fun (e : Store.Queue.entry) ->
          guarded t member (fun () ->
              Store.Queue.drop q ~seq:e.Store.Queue.seq))
        pending;
      guarded t member (fun () -> Store.Queue.compact q);
      n

let depth t ~member =
  match Hashtbl.find_opt t.queues member with
  | None -> 0
  | Some q -> Store.Queue.depth q

let total_depth t =
  Hashtbl.fold (fun _ q acc -> acc + Store.Queue.depth q) t.queues 0

let members t =
  Hashtbl.fold (fun who _ acc -> who :: acc) t.queues []
  |> List.sort String.compare

let files t =
  Hashtbl.fold
    (fun _ q acc -> (Store.Queue.file q, Store.Queue.contents q) :: acc)
    t.queues []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let restore t ~file image =
  match member_of_file file with
  | None -> ()
  | Some member ->
      let q, _state, _status =
        Store.Queue.recover ~compact_every:t.compact_every ?disk:t.disk ~file
          image
      in
      Hashtbl.replace t.queues member (attach t q)

let of_images ?policy ?budgets ?compact_every ?disk images =
  let t = create ?policy ?budgets ?compact_every ?disk () in
  List.iter (fun (file, image) -> restore t ~file image) images;
  t

(* --- degraded-mode support --- *)

let set_durable t b =
  t.durable <- b;
  Hashtbl.iter
    (fun member q ->
      Store.Queue.set_durable q b;
      (* Disarming makes every image stale by construction; flush
         republishes them all at re-arm. *)
      if not b then Hashtbl.replace t.dirty member ())
    t.queues

let durable t = t.durable
let dirty t = Hashtbl.length t.dirty > 0
let dirty_members t =
  Hashtbl.fold (fun m () acc -> m :: acc) t.dirty []
  |> List.sort String.compare

(* Re-arm repair: republish every behind queue as a durable snapshot.
   Compaction writes the whole image (which carries the effect of any
   refused [Drop] markers — a shed record is durably absent from the
   snapshot), so one success per queue clears its debt. *)
let flush t =
  if not t.durable then false
  else begin
    List.iter
      (fun member ->
        match Hashtbl.find_opt t.queues member with
        | None -> Hashtbl.remove t.dirty member
        | Some q -> (
            Store.Queue.set_durable q true;
            try
              Store.Queue.compact q;
              Hashtbl.remove t.dirty member
            with Store.Backend.No_space _ | Store.Backend.Stalled _ ->
              Store.Queue.set_durable q false))
      (dirty_members t);
    not (dirty t)
  end
