(* The closed measurement loop every workload runs in, and the
   assembly of one run's metrics. *)

(* --- the run context --- *)

type ctx = {
  seed : int64;
  seconds : float;
  quick : bool;
  traced : bool;
  spans : Spans.t;
}

(* A sub-seed for the [k]-th stack or input stream of a run. *)
let subseed ctx k = Int64.add (Int64.mul ctx.seed 1_000_003L) (Int64.of_int k)

let now_ns = Monotonic_clock.now
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, ms_between t0 (now_ns ()))

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* Counters every workload reports, sampled around each operation
   (outside the timed window). Workload counters come first. *)
let gc_counters () =
  let minor, promoted, major = Gc.counters () in
  [| minor +. major -. promoted; float_of_int (Gc.quick_stat ()).Gc.major_collections |]

type run = {
  mutable setup_ms : float list;
  mutable op_ms : float list;  (** untraced operations *)
  mutable traced_op_ms : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable heap_peak_mb : float;
  mutable heap_live_mb : float;
  names : string array;  (** workload counters, then the two GC ones *)
  untraced_sum : float array;
  mutable untraced_ops : int;
  mutable extra : (string * float) list;  (** workload-specific metrics *)
  mutable notes : string list;  (** failed checks, for stderr *)
}

let new_run names =
  let names = Array.append names [| "gc.alloc_words"; "gc.major_collections" |] in
  {
    setup_ms = [];
    op_ms = [];
    traced_op_ms = [];
    attempted = 0;
    failed = 0;
    heap_peak_mb = nan;
    heap_live_mb = nan;
    names;
    untraced_sum = Array.make (Array.length names) 0.0;
    untraced_ops = 0;
    extra = [];
    notes = [];
  }

let setup r f =
  let v, ms = timed f in
  r.setup_ms <- ms :: r.setup_ms;
  v

let note r msg = if List.length r.notes < 20 then r.notes <- msg :: r.notes

(* The peak heap so far, then the heap still live after a full major
   collection. The peak moves in steps of the runtime's heap growth, so
   the same program reads 56 or 60 MB depending on when a collection
   falls; the live heap is what the program retains, the same to the
   word on the stack workloads for every seed. *)
let read_heap r =
  r.heap_peak_mb <- words_mb (Gc.quick_stat ()).Gc.top_heap_words;
  Gc.full_major ();
  r.heap_live_mb <- words_mb (Gc.stat ()).Gc.live_words

(* The closed loop: operation [i] starts when [i - 1] and its check
   have finished. It runs for [ctx.seconds] and at least [min_ops]
   operations; [prepare] runs before each operation and [check] after
   it, both outside the timed window. The heap is read once [heap_at]
   operations have finished, so a faster program that fits more
   operations into the run is not charged for the extra retained
   trace; without [heap_at] the workload reads it itself. In a traced
   run every odd operation is traced, so the traced and untraced
   samples come from the same stretch of the run and their ratio is the
   tracing overhead. *)
let loop ctx r ~min_ops ?heap_at ?(prepare = fun _ -> ()) ~counters ~op ~check () =
  let min_ops = max min_ops (Option.value heap_at ~default:0) in
  let deadline = Int64.add (now_ns ()) (Int64.of_float (ctx.seconds *. 1e9)) in
  let i = ref 0 in
  let sample () = Array.append (counters ()) (gc_counters ()) in
  while !i < min_ops || now_ns () < deadline do
    prepare !i;
    let traced = ctx.traced && !i land 1 = 1 in
    Spans.set_op ctx.spans !i;
    let before = sample () in
    Spans.set_enabled ctx.spans traced;
    let t0 = now_ns () in
    op !i;
    let t1 = now_ns () in
    Spans.set_enabled ctx.spans false;
    let after = sample () in
    let ms = ms_between t0 t1 in
    if traced then r.traced_op_ms <- ms :: r.traced_op_ms
    else begin
      r.op_ms <- ms :: r.op_ms;
      r.untraced_ops <- r.untraced_ops + 1;
      Array.iteri (fun k a -> r.untraced_sum.(k) <- r.untraced_sum.(k) +. a -. before.(k)) after
    end;
    r.attempted <- r.attempted + 1;
    if not (check !i) then r.failed <- r.failed + 1;
    incr i;
    if Some !i = heap_at then read_heap r
  done

(* Untraced per-operation mean of a counter. *)
let per_op r name =
  match Array.find_index (String.equal name) r.names with
  | Some k when r.untraced_ops > 0 -> r.untraced_sum.(k) /. float_of_int r.untraced_ops
  | _ -> 0.0

(* [Aead.seal]/[open_] on a [size]-byte body: the median of 15 batches
   of 40 calls, in microseconds. *)
let crypto_us size =
  let key = Sym_crypto.Key.of_raw Sym_crypto.Key.Session (String.make 16 'k') in
  let body = String.make size 'b' and iv = String.make Sym_crypto.Ctr.iv_size 'i' in
  let sealed = Sym_crypto.Aead.seal ~key ~iv ~ad:"ad" body in
  let per_call f =
    Stats.median
      (List.init 15 (fun _ ->
           snd (timed (fun () -> for _ = 1 to 40 do ignore (f ()) done)) *. 1e3 /. 40.0))
  in
  ( per_call (fun () -> Sym_crypto.Aead.seal ~key ~iv ~ad:"ad" body),
    per_call (fun () -> Sym_crypto.Aead.open_ ~key ~ad:"ad" sealed) )

(* Every metric of a finished run, by name. Span-derived metrics come
   from the traced operations; counts from the untraced ones. *)
let metrics ctx r =
  let traced_ops = float_of_int (List.length r.traced_op_ms) in
  let span_per_op name =
    let calls, self_ns, words = Spans.totals ctx.spans name in
    if traced_ops = 0.0 then (0.0, 0.0, 0.0)
    else
      ( self_ns /. 1e3 /. traced_ops,
        float_of_int calls /. traced_ops,
        if calls = 0 then 0.0 else words /. float_of_int calls )
  in
  let self_us name = let s, _, _ = span_per_op name in s in
  (* Events per second at the median operation's pace: the mean over
     all operations would let a few stalled ones set it. *)
  let e2e =
    let p50 = Stats.median r.op_ms in
    [
      ("setup_s", Stats.median r.setup_ms /. 1e3);
      ("op_ms_p50", p50);
      ("op_ms_p95", Stats.windowed_percentile (List.rev r.op_ms) 0.95);
      ("events_per_s", per_op r "events" /. (p50 /. 1e3));
      ("heap_live_mb", r.heap_live_mb);
      ("heap_peak_mb", r.heap_peak_mb);
    ]
  in
  let receive l =
    let self, calls, words = span_per_op (l ^ ".receive") in
    [
      (l ^ ".receive.self_us_per_op", self);
      (l ^ ".receive.calls_per_op", calls);
      (l ^ ".receive.alloc_words_per_call", words);
      (l ^ ".api.self_us_per_op", self_us (l ^ ".api"));
    ]
  in
  (* The share of a traced operation's time its spans account for. The
     self times are means per operation, so they are set against the
     mean operation: the median sits below the mean whenever the
     operations have a tail. *)
  let self_sum =
    List.fold_left (fun acc n -> acc +. self_us n) 0.0 (Spans.names ctx.spans) /. 1e3
  in
  let traced_mean = List.fold_left ( +. ) 0.0 r.traced_op_ms /. traced_ops in
  let traced_p50 = Stats.median r.traced_op_ms in
  let layers =
    receive "leader" @ receive "member"
    @ [
        ("wire.encode.self_us_per_op", self_us "wire.encode");
        ("wire.frames_per_op", per_op r "wire.frames");
        ("wire.bytes_per_op", per_op r "wire.bytes");
        ("netsim.run.self_us_per_op", self_us "netsim.run");
        ("netsim.send.self_us_per_op", self_us "netsim.send");
        ("netsim.events_per_op", per_op r "events");
        ("netsim.trace_entries_per_op", per_op r "netsim.trace_entries");
        ("store.self_us_per_op", self_us "store");
        ("store.calls_per_op", per_op r "store.calls");
        ("store.bytes_written_per_op", per_op r "store.bytes");
        ("store.fsyncs_per_op", per_op r "store.fsyncs");
        ("delivery.queued_per_op", per_op r "delivery.queued");
        ("delivery.drained_per_op", per_op r "delivery.drained");
        ("driver.run.ms_per_vsec", self_us "driver.run" /. 1e3);
      ]
    @ List.map
        (fun p -> (Printf.sprintf "symbolic.%s.self_ms" p, self_us ("symbolic." ^ p) /. 1e3))
        Catalogue.symbolic_parts
    @ [
        ("gc.alloc_words_per_op", per_op r "gc.alloc_words");
        ("gc.major_collections_per_kop", 1e3 *. per_op r "gc.major_collections");
        ("trace.overhead_ratio", traced_p50 /. Stats.median r.op_ms);
        ("trace.op_ms_p50", traced_p50);
        ("trace.self_sum_ratio", self_sum /. traced_mean);
      ]
  in
  (* A workload's own value wins over the generic one; a metric that
     does not apply to the workload reads 0. *)
  List.map
    (fun (m : Catalogue.metric) ->
      let v =
        match List.assoc_opt m.name r.extra with
        | Some v -> v
        | None -> Option.value ~default:0.0 (List.assoc_opt m.name (e2e @ layers))
      in
      (m.name, if Float.is_nan v then 0.0 else v))
    (Catalogue.end_to_end @ Catalogue.per_layer)
