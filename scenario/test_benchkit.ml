(* The benchmark's own statistics: percentiles and the tail rule,
   quartile spread, verdicts, span self time, and the agreement of the
   metric catalogue with BENCHMARK.json. *)

let floats = List.map float_of_int
let close = Alcotest.float 1e-9
let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let percentiles () =
  Alcotest.check close "median of 1..4" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "p95 of 1..100" 95.05
    (Stats.percentile (floats (List.init 100 succ)) 0.95);
  Alcotest.check close "one sample" 7.0 (Stats.percentile [ 7.0 ] 0.95)

let windowed () =
  let burst = List.init 1000 (fun i -> if i >= 400 && i < 500 then 10.0 else 1.0) in
  Alcotest.check close "plain p95 sees the burst" 10.0 (Stats.percentile burst 0.95);
  Alcotest.check close "windowed p95 does not" 1.0 (Stats.windowed_percentile burst 0.95);
  let few = floats (List.init 150 succ) in
  Alcotest.check close "under 200 samples: plain" (Stats.percentile few 0.95)
    (Stats.windowed_percentile few 0.95)

let tail_rule () =
  let check n expect =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "%d samples" n) expect (Stats.highest_supported n)
  in
  check 19 None;
  check 20 (Some 0.5);
  check 199 (Some 0.9);
  check 200 (Some 0.95);
  check 999 (Some 0.95);
  check 1000 (Some 0.99)

let sample_counts () =
  let note = Stats.sample_note 1000 in
  Alcotest.(check bool) "count stated" true (contains note "1000 samples");
  Alcotest.(check bool) "p95 backed" true (contains note "p95 has >=10");
  Alcotest.(check bool) "p90 named when p95 is not backed" true
    (contains (Stats.sample_note 100) "p90");
  Alcotest.(check bool) "too few" true (contains (Stats.sample_note 4) "too few")

(* Values from Python's statistics.quantiles(xs, n=4). *)
let quartiles () =
  let q3 = Alcotest.(triple close close close) in
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25) (Stats.quartiles (floats (List.init 10 succ)));
  Alcotest.check q3 "two samples" (0.75, 1.5, 2.25) (Stats.quartiles [ 2.0; 1.0 ]);
  Alcotest.check close "spread of 1..10" 1.0 (Stats.spread (floats (List.init 10 succ)))

let verdicts () =
  let base = [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ] in
  let scale k = List.map (fun x -> x *. k) base in
  let v a b = Stats.verdict_name (Stats.verdict ~lower_is_better:true ~bound:0.1 a b) in
  Alcotest.(check string) "20% slower" "worse" (v base (scale 1.2));
  Alcotest.(check string) "5% slower, inside the bound" "same" (v base (scale 1.05));
  Alcotest.(check string) "20% faster" "better" (v base (scale 0.8));
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (v (floats [ 50; 80; 100; 120; 150 ]) (floats [ 60; 90; 110; 130; 160 ]));
  Alcotest.(check string) "higher is better" "better"
    (Stats.verdict_name (Stats.verdict ~lower_is_better:false ~bound:0.1 base (scale 1.2)));
  Alcotest.(check string) "two runs a side" "unresolved" (v [ 100.; 101. ] [ 150.; 151. ])

(* A clock the test moves by hand. *)
let fake () =
  let now = ref 0L in
  let spans = Spans.create ~clock:(fun () -> !now) ~keep_ops:1 () in
  Spans.set_enabled spans true;
  (spans, fun t -> now := t)

let self_ns spans name =
  let _, self, _ = Spans.totals spans name in
  self

let nested_self_time () =
  let spans, at = fake () in
  Spans.wrap spans "netsim.run" (fun () ->
      at 10L;
      Spans.wrap spans "leader.receive" (fun () ->
          at 20L;
          Spans.wrap spans "store" (fun () -> at 35L);
          at 50L;
          Spans.wrap spans "store" (fun () -> at 55L);
          at 70L);
      at 100L);
  Alcotest.check close "run minus its direct child" 40.0 (self_ns spans "netsim.run");
  Alcotest.check close "receive minus the store calls" 40.0 (self_ns spans "leader.receive");
  Alcotest.check close "store" 20.0 (self_ns spans "store");
  let calls, _, _ = Spans.totals spans "store" in
  Alcotest.(check int) "store calls" 2 calls;
  let kept = Spans.kept spans in
  let id name = (List.find (fun s -> s.Spans.name = name) kept).Spans.id in
  Alcotest.(check (list (pair string int))) "parents"
    [ ("store", id "leader.receive"); ("store", id "leader.receive");
      ("leader.receive", id "netsim.run"); ("netsim.run", 0) ]
    (List.map (fun s -> (s.Spans.name, s.Spans.parent)) kept)

let exception_closes_span () =
  let spans, at = fake () in
  (try Spans.wrap spans "leader.api" (fun () -> at 5L; failwith "boom") with Failure _ -> ());
  Spans.wrap spans "netsim.run" (fun () -> at 7L);
  Alcotest.check close "failed call still timed" 5.0 (self_ns spans "leader.api");
  Alcotest.check close "next span is a root" 2.0 (self_ns spans "netsim.run")

let disabled_records_nothing () =
  let spans, at = fake () in
  Spans.set_enabled spans false;
  Spans.wrap spans "store" (fun () -> at 9L);
  Alcotest.(check (list string)) "no span names" [] (Spans.names spans)

let only_kept_ops_written () =
  let spans, at = fake () in
  List.iter
    (fun op ->
      Spans.set_op spans op;
      Spans.wrap spans "store" (fun () -> at (Int64.of_int op)))
    [ 0; 1; 2 ];
  Alcotest.(check (list int)) "first op only" [ 0 ] (List.map (fun (s : Spans.span) -> s.op) (Spans.kept spans));
  let calls, _, _ = Spans.totals spans "store" in
  Alcotest.(check int) "all ops counted" 3 calls

let json_round_trip () =
  let j =
    Json.Obj
      [ ("correct", Json.Bool true); ("n", Json.Num 1000.0);
        ("m", Json.Obj [ ("v", Json.Num 1.2034); ("u", Json.Str "ms") ]);
        ("l", Json.Arr [ Json.Null; Json.Num 0.30000000000000004 ]) ]
  in
  Alcotest.(check bool) "parse of print" true (Json.parse (Json.to_string j) = j);
  Alcotest.(check string) "shortest digits" "1.2034" (Json.number 1.2034);
  Alcotest.(check string) "all digits" "0.30000000000000004" (Json.number (0.1 +. 0.2))

let catalogue_matches_benchmark () =
  let b = Json.of_file "../BENCHMARK.json" in
  let rows key = Json.to_list (Json.member key b) in
  let field k j = Json.member k j in
  Alcotest.(check (list (triple string string (float 0.0)))) "end to end"
    (List.map (fun (m : Catalogue.metric) -> (m.name, m.unit_, m.bound)) Catalogue.end_to_end)
    (List.map
       (fun j -> (Json.to_str (field "name" j), Json.to_str (field "unit" j), Json.to_num (field "bound" j)))
       (rows "end_to_end"));
  Alcotest.(check (list (pair string string))) "per layer"
    (List.map (fun (m : Catalogue.metric) -> (m.name, m.unit_)) Catalogue.per_layer)
    (List.map (fun j -> (Json.to_str (field "name" j), Json.to_str (field "unit" j))) (rows "per_layer"));
  List.iter
    (fun (m : Catalogue.metric) ->
      let j = List.find (fun j -> Json.to_str (field "name" j) = m.name) (rows "end_to_end") in
      Alcotest.(check string) (m.name ^ " direction")
        (if m.better = Catalogue.Lower then "lower" else "higher")
        (Json.to_str (field "better" j)))
    Catalogue.end_to_end

let () =
  Alcotest.run "benchkit"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "windowed percentile" `Quick windowed;
          Alcotest.test_case "tail rule" `Quick tail_rule;
          Alcotest.test_case "sample counts" `Quick sample_counts;
          Alcotest.test_case "quartiles" `Quick quartiles;
          Alcotest.test_case "verdicts" `Quick verdicts;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick nested_self_time;
          Alcotest.test_case "exception closes span" `Quick exception_closes_span;
          Alcotest.test_case "disabled records nothing" `Quick disabled_records_nothing;
          Alcotest.test_case "only kept ops written" `Quick only_kept_ops_written;
        ] );
      ( "results",
        [
          Alcotest.test_case "json round trip" `Quick json_round_trip;
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick catalogue_matches_benchmark;
        ] );
    ]
