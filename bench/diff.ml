(* Regression gate over the bench trajectory: compare two
   BENCH_results.json documents (baseline, candidate) per group and
   fail if any group's geometric-mean ns_per_op regressed by more than
   the threshold. This is the one reader of the files bench/main.ml
   writes.

     diff.exe BASELINE.json CAND.json[,CAND2.json,...]
              [--max-regression FRAC]

   Per-group geometric means (not per-test) absorb the run-to-run
   noise of individual micro-benches, and either side may be a
   comma-separated list of result files, scored as the per-group
   MINIMUM across the runs — timing noise on a loaded single-core
   container only ever adds time, so min-of-N is the stable
   statistic. A row without a positive ns_per_op is skipped. Groups
   present in only one file are reported but never fail the gate —
   new benches appear and old ones retire as the suite grows. Under
   each group every row is printed with its own min-of-N delta, so a
   one-row regression that the group's mean hides is visible in the
   log; rows never fail the gate. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Pull the string value of ["key": "v"] out of a one-row JSON line. *)
let str_field line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let nh = String.length line and nn = String.length pat in
  let rec start i =
    if i + nn > nh then None
    else if String.sub line i nn = pat then Some (i + nn)
    else start (i + 1)
  in
  match start 0 with
  | None -> None
  | Some i -> (
      match String.index_from_opt line i '"' with
      | Some j -> Some (String.sub line i (j - i))
      | None -> None)

(* Pull the numeric value of ["key": 123.4] (null -> None). *)
let num_field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let nh = String.length line and nn = String.length pat in
  let rec start i =
    if i + nn > nh then None
    else if String.sub line i nn = pat then Some (i + nn)
    else start (i + 1)
  in
  match start 0 with
  | None -> None
  | Some i ->
      let j = ref i in
      while
        !j < nh
        && (match line.[!j] with
           | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
           | _ -> false)
      do
        incr j
      done;
      if !j = i then None else float_of_string_opt (String.sub line i (!j - i))

let load path =
  let ic =
    try open_in path
    with Sys_error e ->
      Printf.eprintf "bench-diff: cannot open %s: %s\n" path e;
      exit 2
  in
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line > 1 && line.[0] = '{' && contains line "\"group\""
       then
         match (str_field line "group", num_field line "ns_per_op") with
         | Some g, Some ns when ns > 0.0 ->
             let name = Option.value (str_field line "name") ~default:g in
             rows := (g, name, ns) :: !rows
         | _ -> ()
     done
   with End_of_file -> close_in ic);
  !rows

let geo_means rows =
  let tbl : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (g, _, ns) ->
      let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl g) in
      Hashtbl.replace tbl g (s +. log ns, n + 1))
    rows;
  Hashtbl.fold
    (fun g (s, n) acc -> (g, exp (s /. float_of_int n)) :: acc)
    tbl []
  |> List.sort compare

let () =
  let positional =
    let rec go = function
      | [] -> []
      | "--max-regression" :: _ :: rest -> go rest
      | a :: rest when String.length a >= 2 && String.sub a 0 2 = "--" ->
          go rest
      | a :: rest -> a :: go rest
    in
    go (List.tl (Array.to_list Sys.argv))
  in
  let max_regression =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then 0.25
      else if Sys.argv.(i) = "--max-regression" then
        float_of_string Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let baseline_paths, candidate_paths =
    match positional with
    | [ b; c ] -> (String.split_on_char ',' b, String.split_on_char ',' c)
    | _ ->
        prerr_endline
          "usage: diff.exe BASELINE.json CAND.json[,CAND2.json,...] \
           [--max-regression FRAC]";
        exit 2
  in
  (* Minimum over the runs of each key's value: [key] is the group for
     the per-run geometric means, (group, name) for the rows. *)
  let min_over runs =
    let tbl = Hashtbl.create 64 in
    List.iter
      (List.iter (fun (key, m) ->
           match Hashtbl.find_opt tbl key with
           | Some prev when prev <= m -> ()
           | _ -> Hashtbl.replace tbl key m))
      runs;
    Hashtbl.fold (fun key m acc -> (key, m) :: acc) tbl [] |> List.sort compare
  in
  let groups runs = min_over (List.map geo_means runs) in
  let rows runs =
    min_over (List.map (List.map (fun (g, name, ns) -> ((g, name), ns))) runs)
  in
  let baseline_runs = List.map load baseline_paths in
  let candidate_runs = List.map load candidate_paths in
  let baseline = groups baseline_runs and candidate = groups candidate_runs in
  let baseline_rows = rows baseline_runs and candidate_rows = rows candidate_runs in
  (* The rows of group [g] on both sides, each labelled by its name
     without the group prefix. *)
  let show_rows g =
    let in_group side =
      List.filter_map (fun ((g', name), _) -> if g' = g then Some name else None) side
    in
    let prefix = g ^ "/" in
    let cut = String.length prefix in
    List.iter
      (fun name ->
        let label =
          if String.starts_with ~prefix name then
            "  " ^ String.sub name cut (String.length name - cut)
          else "  " ^ name
        in
        match
          ( List.assoc_opt (g, name) baseline_rows,
            List.assoc_opt (g, name) candidate_rows )
        with
        | Some base, Some cand ->
            Printf.printf "%-28s %12.0f %12.0f %+7.1f%%\n" label base cand
              (100.0 *. (cand -. base) /. base)
        | None, Some cand -> Printf.printf "%-28s %12s %12.0f %8s\n" label "(new)" cand "-"
        | Some base, None -> Printf.printf "%-28s %12.0f %12s %8s\n" label base "(gone)" "-"
        | None, None -> ())
      (List.sort_uniq compare (in_group baseline_rows @ in_group candidate_rows))
  in
  let failures = ref 0 in
  Printf.printf "%-28s %12s %12s %8s\n" "group" "baseline" "candidate" "delta";
  List.iter
    (fun (g, cand) ->
      (match List.assoc_opt g baseline with
      | None -> Printf.printf "%-28s %12s %12.0f %8s\n" g "(new)" cand "-"
      | Some base ->
          let delta = (cand -. base) /. base in
          let regressed = delta > max_regression in
          if regressed then incr failures;
          Printf.printf "%-28s %12.0f %12.0f %+7.1f%%%s\n" g base cand
            (100.0 *. delta)
            (if regressed then "  REGRESSION" else ""));
      show_rows g)
    candidate;
  List.iter
    (fun (g, base) ->
      if not (List.mem_assoc g candidate) then
        Printf.printf "%-28s %12.0f %12s %8s\n" g base "(gone)" "-")
    baseline;
  if !failures > 0 then begin
    Printf.printf
      "\n%d group(s) regressed beyond %.0f%% on geometric-mean ns/op\n"
      !failures
      (100.0 *. max_regression);
    exit 1
  end
  else print_endline "\nno group regressed beyond the threshold"
