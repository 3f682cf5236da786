type t = {
  sent : int;
  delivered : int;
  dropped : int;
  dropped_by_adversary : int;
  dropped_unregistered : int;
  dropped_by_fault : int;
  injected : int;
  unmatched_deliveries : int;
  bytes_on_wire : int;
  latency_min_ms : float;
  latency_mean_ms : float;
  latency_max_ms : float;
}

let compute trace =
  let sent = ref 0
  and delivered = ref 0
  and dropped = ref 0
  and dropped_adv = ref 0
  and dropped_unreg = ref 0
  and dropped_fault = ref 0
  and injected = ref 0
  and unmatched = ref 0
  and bytes = ref 0 in
  (* Pending send times keyed by (src, dst, payload); FIFO per key. *)
  let pending : (string * string * string, Vtime.t Queue.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let latencies = ref [] in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Sent { time; src; dst; payload } ->
          incr sent;
          bytes := !bytes + String.length payload;
          let key = (src, dst, payload) in
          let q =
            match Hashtbl.find_opt pending key with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.replace pending key q;
                q
          in
          Queue.add time q
      | Trace.Delivered { time; src; dst; payload; _ } -> (
          incr delivered;
          match Hashtbl.find_opt pending (src, dst, payload) with
          | Some q when not (Queue.is_empty q) ->
              let t0 = Queue.pop q in
              latencies := Vtime.to_float_ms (Int64.sub time t0) :: !latencies
          | _ ->
              (* No matching Sent: an injected or adversary-rewritten
                 frame reached its destination. *)
              incr unmatched)
      | Trace.Dropped { cause; _ } -> (
          incr dropped;
          match cause with
          | Trace.By_adversary -> incr dropped_adv
          | Trace.Unregistered -> incr dropped_unreg
          | Trace.By_fault -> incr dropped_fault)
      | Trace.Injected { payload; _ } ->
          incr injected;
          bytes := !bytes + String.length payload)
    (Trace.entries trace);
  let lats = !latencies in
  let n = List.length lats in
  let mean = if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 lats /. float_of_int n in
  let min_ = List.fold_left min infinity lats in
  let max_ = List.fold_left max neg_infinity lats in
  {
    sent = !sent;
    delivered = !delivered;
    dropped = !dropped;
    dropped_by_adversary = !dropped_adv;
    dropped_unregistered = !dropped_unreg;
    dropped_by_fault = !dropped_fault;
    injected = !injected;
    unmatched_deliveries = !unmatched;
    bytes_on_wire = !bytes;
    latency_min_ms = (if n = 0 then 0.0 else min_);
    latency_mean_ms = mean;
    latency_max_ms = (if n = 0 then 0.0 else max_);
  }

let by_label ~decode_label trace =
  let counts = Hashtbl.create 16 in
  let bump name =
    Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Sent { payload; _ } | Trace.Injected { payload; _ } ->
          bump (Option.value ~default:"<garbage>" (decode_label payload))
      | Trace.Delivered _ | Trace.Dropped _ -> ())
    (Trace.entries trace);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort compare

let pp fmt t =
  Format.fprintf fmt
    "sent=%d delivered=%d dropped=%d (adv=%d unreg=%d fault=%d) injected=%d \
     unmatched=%d bytes=%d latency(ms) min/mean/max=%.2f/%.2f/%.2f"
    t.sent t.delivered t.dropped t.dropped_by_adversary
    t.dropped_unregistered t.dropped_by_fault t.injected
    t.unmatched_deliveries t.bytes_on_wire t.latency_min_ms t.latency_mean_ms
    t.latency_max_ms

type delivery = {
  queued : int;
  drained : int;
  deduped : int;
  resealed : int;
  rejected_stale : int;
  delivered_stale : int;
  queue_bytes_hwm : int;
}

let empty_delivery =
  {
    queued = 0;
    drained = 0;
    deduped = 0;
    resealed = 0;
    rejected_stale = 0;
    delivered_stale = 0;
    queue_bytes_hwm = 0;
  }

let delivery_named d =
  [
    ("queued", d.queued);
    ("drained", d.drained);
    ("deduped", d.deduped);
    ("resealed", d.resealed);
    ("rejected_stale", d.rejected_stale);
    ("delivered_stale", d.delivered_stale);
    ("queue_bytes_hwm", d.queue_bytes_hwm);
  ]

let pp_named fmt counters =
  let pp_one fmt (name, v) = Format.fprintf fmt "%s=%d" name v in
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
    pp_one fmt counters
