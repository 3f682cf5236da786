(* Reads the JSON output of chaos and nemesis sweeps and checks that
   every run's storage counters balance: each transient EIO and each
   short write the fault layer injected was retried exactly once, so
   eio_retries = eio_injected + short_writes. Exits 1 if a run does
   not balance, or if no run injected such a fault at all.

   Usage: eio_balance FILE... *)

let find s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let field obj name =
  let key = "\"" ^ name ^ "\":" in
  match find obj key 0 with
  | None -> failwith ("storage object without " ^ name)
  | Some i ->
      let start = i + String.length key in
      let stop = ref start in
      while !stop < String.length obj && '0' <= obj.[!stop] && obj.[!stop] <= '9' do
        incr stop
      done;
      int_of_string (String.sub obj start (!stop - start))

let () =
  let runs = ref 0 and faults = ref 0 and unbalanced = ref 0 in
  for a = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(a) in
    let s = In_channel.with_open_bin path In_channel.input_all in
    let rec scan from =
      match find s "\"storage\":{" from with
      | None -> ()
      | Some i ->
          let j = String.index_from s i '}' in
          let obj = String.sub s i (j - i) in
          let injected = field obj "eio_injected"
          and short = field obj "short_writes"
          and retries = field obj "eio_retries" in
          incr runs;
          faults := !faults + injected + short;
          if retries <> injected + short then begin
            incr unbalanced;
            Printf.printf
              "%s: eio_retries=%d but eio_injected=%d short_writes=%d\n" path
              retries injected short
          end;
          scan j
    in
    scan 0
  done;
  if !faults = 0 then begin
    Printf.printf "%d runs, none injected an EIO or a short write\n" !runs;
    exit 1
  end;
  if !unbalanced > 0 then exit 1
