open Field

(* [Set.add] returns its argument itself when the element is already
   there, which tells a new field from a known one in one descent. *)
let rec add_parts acc f =
  let acc' = Set.add f acc in
  if acc' == acc then acc
  else
    match f with
    | FAgent _ | FNonce _ | FKey _ | FData _ -> acc'
    | FCat fs -> List.fold_left add_parts acc' fs
    | FCrypt (_, body) -> add_parts acc' body

let parts s = Set.fold (fun f acc -> add_parts acc f) s Set.empty
let parts_of_field f = add_parts Set.empty f

(* Analz in one pass over a worklist: a concatenation is split when
   it is learned, and an encryption is opened at once if its key is
   known, or else waits under its key until that key is learned. *)
let analz s =
  let known = ref s and waiting = ref [] in
  let rec learn f =
    let known' = Set.add f !known in
    if known' != !known then begin
      known := known';
      open_ f
    end
  and open_ = function
    | FCat fs -> List.iter learn fs
    | FCrypt (k, body) ->
        if Set.mem (FKey k) !known then learn body
        else waiting := (k, body) :: !waiting
    | FKey k ->
        let ready, rest =
          List.partition (fun (k', _) -> compare_key k k' = 0) !waiting
        in
        waiting := rest;
        List.iter (fun (_, body) -> learn body) ready
    | FAgent _ | FNonce _ | FData _ -> ()
  in
  Set.iter open_ s;
  !known

let rec in_synth s f =
  Set.mem f s
  ||
  match f with
  | FCat fs -> List.for_all (in_synth s) fs
  | FCrypt (k, body) -> Set.mem (FKey k) s && in_synth s body
  | FAgent _ | FData _ ->
      (* Agent names and abstract admin payloads are public: a sound
         over-approximation that only strengthens the intruder. *)
      true
  | FNonce _ | FKey _ -> false

let rec in_ideal s f =
  Set.mem f s
  ||
  match f with
  | FCat fs -> List.exists (in_ideal s) fs
  | FCrypt (k, body) -> (not (Set.mem (FKey k) s)) && in_ideal s body
  | FAgent _ | FNonce _ | FKey _ | FData _ -> false

let in_coideal s f = not (in_ideal s f)
