type verdict = Deliver | Drop | Replace of string | Delay of Vtime.t
type adversary = src:string -> dst:string -> payload:string -> verdict

type t = {
  sim : Sim.t;
  latency_lo : int;
  latency_hi : int;
  trace : Trace.t;
  nodes : (string, string -> unit) Hashtbl.t;
  rng : Prng.Splitmix.t;
  mutable adversary : adversary option;
  mutable faultplan : Faultplan.t option;
  (* Split lazily on the first [set_faultplan] so fault-free runs draw
     exactly the same random stream as before the fault layer existed. *)
  mutable fault_rng : Prng.Splitmix.t option;
  fault_counters : Faultplan.counters;
  (* Last scheduled delivery time per (src,dst), to keep per-pair FIFO. *)
  last_delivery : (string * string, Vtime.t) Hashtbl.t;
  (* Injection path of the frame whose handler is running right now —
     valid only for the duration of the synchronous handler call. *)
  mutable delivering : Trace.via option;
}

let create ~sim ?(latency_us = (500, 1500)) () =
  let lo, hi = latency_us in
  if lo < 0 || hi < lo then invalid_arg "Network.create: bad latency range";
  {
    sim;
    latency_lo = lo;
    latency_hi = hi;
    trace = Trace.create ();
    nodes = Hashtbl.create 16;
    rng = Prng.Splitmix.split (Sim.rng sim);
    adversary = None;
    faultplan = None;
    fault_rng = None;
    fault_counters = Faultplan.fresh_counters ();
    last_delivery = Hashtbl.create 16;
    delivering = None;
  }

let trace t = t.trace
let register t name handler = Hashtbl.replace t.nodes name handler
let unregister t name = Hashtbl.remove t.nodes name
let set_adversary t adv = t.adversary <- adv

let set_faultplan t plan =
  (match (plan, t.fault_rng) with
  | Some _, None -> t.fault_rng <- Some (Prng.Splitmix.split t.rng)
  | _ -> ());
  t.faultplan <- plan

let fault_counters t = t.fault_counters

let draw_latency t =
  let span = t.latency_hi - t.latency_lo in
  let us =
    if span = 0 then t.latency_lo
    else t.latency_lo + Prng.Splitmix.next_int t.rng (span + 1)
  in
  Vtime.of_us us

(* FIFO per (src,dst): never schedule a delivery earlier than the last
   one already scheduled for the same pair. *)
let fifo_time t ~src ~dst ~extra =
  let base = Vtime.add (Sim.now t.sim) (Vtime.add (draw_latency t) extra) in
  let key = (src, dst) in
  let time =
    match Hashtbl.find_opt t.last_delivery key with
    | Some last when Vtime.(base < last) -> last
    | _ -> base
  in
  Hashtbl.replace t.last_delivery key time;
  time

let record_drop t ~src ~dst ~payload ~cause =
  Trace.record t.trace
    (Trace.Dropped { time = Sim.now t.sim; src; dst; payload; cause })

let delivering_via t = t.delivering

let deliver t ~src ~dst ~payload ~via ~extra =
  let time = fifo_time t ~src ~dst ~extra in
  Sim.schedule_at t.sim ~time (fun () ->
      (* An outage is re-checked at delivery time: frames in flight
         toward a node that has since crashed are lost with it. *)
      let dst_down =
        match t.faultplan with
        | Some plan when Faultplan.node_down plan ~now:(Sim.now t.sim) dst ->
            t.fault_counters.Faultplan.down <-
              t.fault_counters.Faultplan.down + 1;
            true
        | _ -> false
      in
      if dst_down then record_drop t ~src ~dst ~payload ~cause:Trace.By_fault
      else
        match Hashtbl.find_opt t.nodes dst with
        | Some handler ->
            Trace.record t.trace
              (Trace.Delivered
                 { time = Sim.now t.sim; src; dst; payload; via });
            let saved = t.delivering in
            t.delivering <- Some via;
            Fun.protect
              ~finally:(fun () -> t.delivering <- saved)
              (fun () -> handler payload)
        | None -> record_drop t ~src ~dst ~payload ~cause:Trace.Unregistered)

(* The fault layer sits after the adversary tap: whatever the
   adversary lets through (possibly rewritten or delayed) is then
   subject to loss, corruption, duplication, spikes, partitions and
   outages from the installed plan. *)
let faulted_deliver t ~src ~dst ~payload ~via ~extra =
  match (t.faultplan, t.fault_rng) with
  | Some plan, Some rng -> (
      match
        Faultplan.apply plan ~rng ~counters:t.fault_counters
          ~now:(Sim.now t.sim) ~src ~dst ~payload
      with
      | Faultplan.Fault_drop _ ->
          record_drop t ~src ~dst ~payload ~cause:Trace.By_fault
      | Faultplan.Fault_pass { payload; extra = fault_extra; copies } ->
          let extra = Vtime.add extra fault_extra in
          for _ = 1 to copies do
            deliver t ~src ~dst ~payload ~via ~extra
          done)
  | _ -> deliver t ~src ~dst ~payload ~via ~extra

let send t ~src ~dst payload =
  Trace.record t.trace (Trace.Sent { time = Sim.now t.sim; src; dst; payload });
  (* An honest send arrives over the sender's own registered endpoint:
     the network itself vouches for the [via] tag, frame contents
     cannot override it. *)
  let via = Trace.Via_socket src in
  match t.adversary with
  | None -> faulted_deliver t ~src ~dst ~payload ~via ~extra:Vtime.zero
  | Some adv -> (
      match adv ~src ~dst ~payload with
      | Deliver -> faulted_deliver t ~src ~dst ~payload ~via ~extra:Vtime.zero
      | Drop -> record_drop t ~src ~dst ~payload ~cause:Trace.By_adversary
      | Replace payload' ->
          faulted_deliver t ~src ~dst ~payload:payload' ~via ~extra:Vtime.zero
      | Delay extra -> faulted_deliver t ~src ~dst ~payload ~via ~extra)

let inject t ?origin ~dst payload =
  Trace.record t.trace
    (Trace.Injected { time = Sim.now t.sim; dst; payload; origin });
  (* Injection bypasses the fault plan: the adversary's own frames are
     placed on the last hop directly. A compromised insider pushing
     frames through its own connection arrives [Via_socket insider];
     a raw wire write (no endpoint) arrives [Via_wire]. *)
  let src, via =
    match origin with
    | Some o -> (o, Trace.Via_socket o)
    | None -> ("<adversary>", Trace.Via_wire)
  in
  deliver t ~src ~dst ~payload ~via ~extra:Vtime.zero
