(** Summary statistics over a network {!Trace}.

    Scenario reports (examples, EXPERIMENTS.md) use these to describe
    a run quantitatively: how many frames of each kind flowed, how many
    bytes, what latencies deliveries experienced, and what the
    adversary did. *)

type t = {
  sent : int;
  delivered : int;
  dropped : int;  (** Aggregate of the three cause-split fields below. *)
  dropped_by_adversary : int;  (** Adversary tap returned [Drop]. *)
  dropped_unregistered : int;  (** Destination had no handler. *)
  dropped_by_fault : int;  (** Fault plan: loss, partition or outage. *)
  injected : int;
  unmatched_deliveries : int;
      (** Deliveries with no matching [Sent] record: injected or
          adversary-rewritten frames that reached a destination. *)
  bytes_on_wire : int;  (** Total payload bytes of sent + injected frames. *)
  latency_min_ms : float;  (** Over delivered frames; 0 if none. *)
  latency_mean_ms : float;
  latency_max_ms : float;
}

val compute : Trace.t -> t
(** Latency is matched per (src, dst, payload) pair: the delay between
    a [Sent] record and the first subsequent [Delivered] with the same
    key. Deliveries without a matching [Sent] (injections, rewrites)
    are excluded from latency and counted in
    [unmatched_deliveries]. *)

val by_label : decode_label:(string -> string option) -> Trace.t -> (string * int) list
(** Count sent+injected frames by decoded label; [decode_label] maps
    payload bytes to a label name (e.g. via [Wire.Frame.decode]).
    Undecodable payloads count under ["<garbage>"]. Sorted by label. *)

val pp : Format.formatter -> t -> unit

type delivery = {
  queued : int;  (** Records pushed into offline members' durable queues. *)
  drained : int;  (** Records handed to a reconnected member's channel. *)
  deduped : int;
      (** Redeliveries absorbed by members' delivery floors (summed
          over members). *)
  resealed : int;
      (** Drained records whose queued epoch was behind the current
          one but inside the policy window — delivered under the live
          session key. *)
  rejected_stale : int;  (** Records durably dropped beyond the window. *)
  delivered_stale : int;  (** Records delivered flagged stale. *)
  queue_bytes_hwm : int;  (** High-water mark of summed queue bytes. *)
}
(** Store-and-forward delivery counters — what the offline-member
    queues did during a run. Computed by the driver / churn harness,
    rendered with {!pp_named} via {!delivery_named}. *)

val empty_delivery : delivery

val delivery_named : delivery -> (string * int) list
(** Labelled counters for {!pp_named}, in declaration order. *)

val pp_named : Format.formatter -> (string * int) list -> unit
(** Render labelled counters as ["name=value name=value ..."] — used
    by the chaos CLI for retry and recovery counter summaries. *)
