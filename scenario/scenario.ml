(* Scenario benchmark: five workloads over the Enclaves stack, each
   reported with end-to-end metrics and, from a traced run, per-layer
   metrics. See README.md in this directory.

     scenario.exe [--workload NAME]... [--seed N] [--seconds S] [--quick]
                  [--trace 0|1|DIR] [--json PATH]
     scenario.exe --compare BASE.json[,BASE2.json...] CAND.json[,...]

   With one --workload the run happens in this process and the last
   line of standard output is the result object {correct, attempted,
   failed, metrics}; otherwise every workload runs in a child process
   of its own, one after another, so that set-up time and the heap
   belong to that workload alone. The exit code is 1 when a check
   failed. *)

module M = Measure
module C = Catalogue

let pp_value v =
  if v = 0.0 then "0"
  else if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.4g" v

let metrics_json metrics values =
  Json.Obj
    (List.filter_map
       (fun (m : C.metric) ->
         Option.map
           (fun v -> (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
           (List.assoc_opt m.name values))
       metrics)

let print_rows title metrics values =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (m : C.metric) ->
      Option.iter
        (fun v -> Printf.printf "    %-38s %12s %s\n" m.name (pp_value v) m.unit_)
        (List.assoc_opt m.name values))
    metrics

(* The per-layer metrics an untraced run prints too: the tail, the peak
   heap and the outcome of the checks. *)
let checks =
  List.filter
    (fun (m : C.metric) ->
      List.mem m.name
        [ "op_ms_p95"; "heap_peak_mb"; "vlat_ms_p50"; "vlat_ms_p95"; "reconverge_vms"; "failed_frac";
          "members_out" ])
    C.per_layer

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_runs path runs =
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj [ ("runs", Json.Arr runs) ]));
  output_char oc '\n';
  close_out oc

let result ~correct ~attempted ~failed metrics =
  [ ("correct", Json.Bool correct); ("attempted", Json.Num (float_of_int attempted));
    ("failed", Json.Num (float_of_int failed)); ("metrics", metrics) ]

(* One workload, in this process. [full] ends the output with every
   metric (how a parent process collects a child's result) instead of
   the end-to-end or per-layer set alone. *)
let run_one (w : Workloads.t) ~seed ~seconds ~quick ~spans_dir ~full =
  let spans = Spans.create ~keep_ops:(if spans_dir = None then 0 else 20) () in
  let ctx = { M.seed; seconds; quick; traced = spans_dir <> None; spans } in
  let r = M.new_run w.counters in
  w.run ctx r;
  let values = M.metrics ctx r in
  let correct = r.failed = 0 in
  Printf.printf "== %s (seed %Ld, %g s%s%s) ==\n" w.name seed seconds
    (if quick then ", quick" else "")
    (if ctx.traced then ", traced" else "");
  Printf.printf "  untraced ops: %s; traced ops: %d; set-ups: %d\n"
    (Stats.sample_note (List.length r.op_ms))
    (List.length r.traced_op_ms) (List.length r.setup_ms);
  print_rows "end to end" C.end_to_end values;
  if ctx.traced then begin
    print_rows "per layer" C.per_layer values;
    Printf.printf "  tracing overhead: traced op p50 / untraced op p50 = %.3f\n"
      (List.assoc "trace.overhead_ratio" values)
  end
  else print_rows "tail and checks" checks values;
  Printf.printf "  %d of %d operations failed their checks\n" r.failed r.attempted;
  List.iter (fun n -> Printf.eprintf "%s: %s\n" w.name n) (List.rev r.notes);
  Option.iter
    (fun dir ->
      mkdir_p dir;
      let path = Filename.concat dir (w.name ^ ".spans.jsonl") in
      Spans.write_jsonl spans path;
      Printf.printf "  spans: %s\n" path)
    spans_dir;
  let result metrics = result ~correct ~attempted:r.attempted ~failed:r.failed metrics in
  let full_result =
    Json.Obj
      ([ ("workload", Json.Str w.name); ("seed", Json.Num (Int64.to_float seed));
         ("traced", Json.Bool ctx.traced) ]
      @ result (metrics_json (C.end_to_end @ C.per_layer) values))
  in
  let line =
    if full then full_result
    else Json.Obj (result (metrics_json (if ctx.traced then C.per_layer else C.end_to_end) values))
  in
  print_endline (Json.to_string line);
  (correct, full_result)

(* Each workload in a child process; the child's last output line
   carries its full result back. *)
let run_children ws ~seed ~seconds ~quick ~trace =
  List.map
    (fun (w : Workloads.t) ->
      let args =
        [ Sys.executable_name; "--workload"; w.name; "--seed"; Int64.to_string seed;
          "--seconds"; Printf.sprintf "%g" seconds; "--trace"; trace; "--full-result" ]
        @ if quick then [ "--quick" ] else []
      in
      let rd, wr = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr
      in
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let rec echo last =
        match input_line ic with
        | l ->
            Option.iter print_endline last;
            echo (Some l)
        | exception End_of_file -> last
      in
      let last = echo None in
      close_in ic;
      flush stdout;
      match (Unix.waitpid [] pid, last) with
      | (_, Unix.WEXITED (0 | 1)), Some l -> Json.parse l
      | _ -> failwith (w.name ^ ": the workload process did not finish"))
    ws

let summarize results =
  Printf.printf "\n== summary ==\n%-14s" "workload";
  List.iter (fun (m : C.metric) -> Printf.printf " %14s" m.name) C.end_to_end;
  Printf.printf " %8s\n" "failed";
  List.iter
    (fun j ->
      Printf.printf "%-14s" (Json.to_str (Json.member "workload" j));
      List.iter
        (fun (m : C.metric) ->
          Printf.printf " %14s"
            (match Json.member "value" (Json.member m.name (Json.member "metrics" j)) with
            | Json.Num v -> pp_value v
            | _ -> "-"))
        C.end_to_end;
      Printf.printf " %8.0f\n" (Json.to_num (Json.member "failed" j)))
    results

(* --- compare mode --- *)

let load_runs paths =
  List.concat_map
    (fun p -> Json.to_list (Json.member "runs" (Json.of_file p)))
    (String.split_on_char ',' paths)

(* One row per workload and metric: each side's quartiles, the median
   shift, and for end-to-end metrics the verdict against their bound.
   Exit code 1 when some metric got worse. *)
let compare_runs base cand =
  let base = load_runs base and cand = load_runs cand in
  let values runs w name =
    List.filter_map
      (fun j ->
        match Json.member "value" (Json.member name (Json.member "metrics" j)) with
        | Json.Num v when Json.to_str (Json.member "workload" j) = w -> Some v
        | _ -> None)
      runs
  in
  let workloads =
    List.sort_uniq compare (List.map (fun j -> Json.to_str (Json.member "workload" j)) (base @ cand))
  in
  let quartiles xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Printf.sprintf "%s/%s/%s" (pp_value q1) (pp_value q2) (pp_value q3)
  in
  let worse = ref 0 in
  Printf.printf "%-14s %-36s %26s %26s %8s %6s  %s\n" "workload" "metric" "base q1/median/q3"
    "cand q1/median/q3" "delta" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : C.metric) ->
          let a = values base w m.name and b = values cand w m.name in
          if a <> [] && b <> [] then begin
            let ma = Stats.median a in
            let delta = if ma = 0.0 then 0.0 else (Stats.median b -. ma) /. Float.abs ma in
            let bound, verdict =
              if Float.is_nan m.bound then ("-", "-")
              else
                let v = Stats.verdict ~lower_is_better:(m.better = C.Lower) ~bound:m.bound a b in
                if v = Stats.Worse then incr worse;
                (Printf.sprintf "%.2f" m.bound, Stats.verdict_name v)
            in
            Printf.printf "%-14s %-36s %26s %26s %+7.1f%% %6s  %s\n" w m.name (quartiles a)
              (quartiles b) (100.0 *. delta) bound verdict
          end)
        (C.end_to_end @ C.per_layer))
    workloads;
  if !worse > 0 then begin
    Printf.printf "\n%d metric(s) worse beyond their bound\n" !worse;
    1
  end
  else 0

(* --- command line --- *)

let run names ~seed ~seconds ~quick ~trace ~json ~full =
  let seconds = if quick then 0.0 else seconds in
  match List.filter (fun n -> Workloads.find n = None) names with
  | n :: _ ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" n
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      2
  | [] -> (
      match List.filter_map Workloads.find names with
      | [ w ] ->
          let spans_dir =
            match trace with
            | "0" -> None
            | "1" -> Some (Filename.concat ".bench_build" "spans")
            | dir -> Some dir
          in
          let correct, result = run_one w ~seed ~seconds ~quick ~spans_dir ~full in
          Option.iter (fun p -> write_runs p [ result ]) json;
          if correct then 0 else 1
      | chosen ->
          let ws = if chosen = [] then Workloads.all else chosen in
          let results = run_children ws ~seed ~seconds ~quick ~trace in
          summarize results;
          Option.iter (fun p -> write_runs p results) json;
          let sum key = List.fold_left (fun a j -> a + int_of_float (Json.to_num (Json.member key j))) 0 results in
          let correct = List.for_all (fun j -> Json.member "correct" j = Json.Bool true) results in
          print_endline
            (Json.to_string
               (Json.Obj (result ~correct ~attempted:(sum "attempted") ~failed:(sum "failed") (Json.Obj []))));
          if correct then 0 else 1)

let () =
  let open Cmdliner in
  let workloads =
    Arg.(value & opt_all string [] & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Run this workload (repeatable); default all five.")
  in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Workload seed.") in
  let seconds =
    Arg.(value & opt float 10.0 & info [ "seconds" ] ~doc:"Measured seconds per workload.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-sized workloads, checks on.") in
  let trace =
    Arg.(value & opt string "0" & info [ "trace" ] ~docv:"0|1|DIR"
           ~doc:"Trace every other operation and report per-layer metrics; the spans go to \
                 DIR, or to .bench_build/spans for 1.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
           ~doc:"Also write every metric of every run to PATH, for --compare.")
  in
  let full =
    Arg.(value & flag & info [ "full-result" ]
           ~doc:"End with every metric (used between the parent and its workload processes).")
  in
  let compare =
    Arg.(value & flag & info [ "compare" ]
           ~doc:"Compare two sets of --json result files, BASE[,BASE2..] CAND[,CAND2..].")
  in
  let files = Arg.(value & pos_all string [] & info [] ~docv:"BASE CAND") in
  let main names seed seconds quick trace json full compare files =
    match (compare, files) with
    | true, [ base; cand ] -> compare_runs base cand
    | false, [] -> run names ~seed ~seconds ~quick ~trace ~json ~full
    | _ ->
        prerr_endline "scenario: BASE and CAND are given with --compare, and only then";
        2
  in
  let term =
    Term.(const main $ workloads $ seed $ seconds $ quick $ trace $ json $ full $ compare $ files)
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "scenario" ~doc:"Enclaves scenario benchmark") term))
