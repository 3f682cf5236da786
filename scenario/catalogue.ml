(* Every metric the benchmark reports. BENCHMARK.json carries the same
   names, units and bounds; a test holds the two together. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float }

let e2e name unit_ better bound = { name; unit_; better; bound }
let layer name unit_ = { name; unit_; better = Lower; bound = nan }

(* Bounds are the share of the base median a metric may worsen by.
   The p95 and the peak heap are per-layer metrics, reported but not
   gated: their spread between runs exceeds the bound they would need
   (README.md). *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "op_ms_p50" "ms" Lower 0.25;
    e2e "events_per_s" "1/s" Higher 0.25;
    e2e "heap_live_mb" "MB" Lower 0.05;
  ]

let symbolic_parts =
  [ "explore"; "invariants"; "properties"; "diagram"; "recovery"; "delivery_model"; "sentinel_model" ]

let per_layer =
  List.concat
    [
      List.concat_map
        (fun l ->
          [
            layer (l ^ ".receive.self_us_per_op") "us";
            layer (l ^ ".receive.calls_per_op") "count";
            layer (l ^ ".receive.alloc_words_per_call") "words";
            layer (l ^ ".api.self_us_per_op") "us";
          ])
        [ "leader"; "member" ];
      [
        layer "crypto.sealed_frames_per_op" "count";
        layer "crypto.sealed_bytes_per_op" "B";
        layer "crypto.seal_us" "us";
        layer "crypto.open_us" "us";
        layer "wire.encode.self_us_per_op" "us";
        layer "wire.frames_per_op" "count";
        layer "wire.bytes_per_op" "B";
        layer "netsim.run.self_us_per_op" "us";
        layer "netsim.send.self_us_per_op" "us";
        layer "netsim.events_per_op" "count";
        layer "netsim.trace_entries_per_op" "count";
        layer "store.self_us_per_op" "us";
        layer "store.calls_per_op" "count";
        layer "store.bytes_written_per_op" "B";
        layer "store.fsyncs_per_op" "count";
        layer "delivery.queued_per_op" "count";
        layer "delivery.drained_per_op" "count";
        layer "driver.run.ms_per_vsec" "ms";
        layer "driver.retransmits_per_vsec" "count";
        layer "driver.sentinel.escalations" "count";
      ];
      List.map (fun p -> layer (Printf.sprintf "symbolic.%s.self_ms" p) "ms") symbolic_parts;
      [
        layer "symbolic.states" "count";
        layer "symbolic.edges" "count";
        layer "gc.alloc_words_per_op" "words";
        layer "gc.major_collections_per_kop" "count";
        layer "op_ms_p95" "ms";
        layer "heap_peak_mb" "MB";
        layer "vlat_ms_p50" "ms";
        layer "vlat_ms_p95" "ms";
        layer "reconverge_vms" "ms";
        layer "failed_frac" "ratio";
        layer "members_out" "count";
        layer "trace.overhead_ratio" "ratio";
        layer "trace.op_ms_p50" "ms";
        layer "trace.self_sum_ratio" "ratio";
      ];
    ]
