(* Span recorder for traced runs.

   A span brackets one call the benchmark makes into a layer's public
   function. Spans nest when that call re-enters the benchmark (a store
   call made from inside [Leader.receive] through the backend shim, a
   member handler run from inside [Sim.run]), and a span's self time is
   its duration minus the durations of its direct children. Self time
   and self allocation are folded into per-name totals as each span
   closes, so the table needs no second pass; the spans themselves are
   kept only for the first [keep_ops] traced operations, for the span
   file. With recording off, [wrap] is a single branch. *)

type span = {
  op : int;
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_ns : int64;
  end_ns : int64;
  minor_words : float;  (** [Gc.minor_words] delta, children included *)
}

type frame = {
  f_id : int;
  f_parent : int;
  f_name : string;
  f_start : int64;
  f_minor : float;
  mutable child_ns : int64;
  mutable child_words : float;
}

type layer = {
  mutable calls : int;
  mutable self_ns : float;
  mutable self_words : float;
}

type t = {
  clock : unit -> int64;
  keep_ops : int;
  mutable enabled : bool;
  mutable op : int;
  mutable next_id : int;
  mutable stack : frame list;
  layers : (string, layer) Hashtbl.t;
  mutable kept_rev : span list;
  mutable kept_ops : int;
  mutable last_kept_op : int;
}

let create ?(clock = Monotonic_clock.now) ?(keep_ops = 0) () =
  {
    clock;
    keep_ops;
    enabled = false;
    op = 0;
    next_id = 0;
    stack = [];
    layers = Hashtbl.create 16;
    kept_rev = [];
    kept_ops = 0;
    last_kept_op = -1;
  }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let set_op t op = t.op <- op

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
      let l = { calls = 0; self_ns = 0.0; self_words = 0.0 } in
      Hashtbl.replace t.layers name l;
      l

let close t f =
  let end_ns = t.clock () in
  let words = Gc.minor_words () -. f.f_minor in
  let dur = Int64.sub end_ns f.f_start in
  t.stack <- List.tl t.stack;
  (match t.stack with
  | p :: _ ->
      p.child_ns <- Int64.add p.child_ns dur;
      p.child_words <- p.child_words +. words
  | [] -> ());
  let l = layer t f.f_name in
  l.calls <- l.calls + 1;
  l.self_ns <- l.self_ns +. Int64.to_float (Int64.sub dur f.child_ns);
  l.self_words <- l.self_words +. (words -. f.child_words);
  if t.op <> t.last_kept_op && t.kept_ops < t.keep_ops then begin
    t.last_kept_op <- t.op;
    t.kept_ops <- t.kept_ops + 1
  end;
  if t.op = t.last_kept_op then
    t.kept_rev <-
      {
        op = t.op;
        id = f.f_id;
        parent = f.f_parent;
        name = f.f_name;
        start_ns = f.f_start;
        end_ns;
        minor_words = words;
      }
      :: t.kept_rev

let wrap t name fn =
  if not t.enabled then fn ()
  else begin
    t.next_id <- t.next_id + 1;
    let f =
      {
        f_id = t.next_id;
        f_parent = (match t.stack with p :: _ -> p.f_id | [] -> 0);
        f_name = name;
        f_start = t.clock ();
        f_minor = Gc.minor_words ();
        child_ns = 0L;
        child_words = 0.0;
      }
    in
    t.stack <- f :: t.stack;
    match fn () with
    | v ->
        close t f;
        v
    | exception e ->
        close t f;
        raise e
  end

(* [(calls, self_ns, self_words)] for one span name; zeros if it never
   ran. *)
let totals t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> (l.calls, l.self_ns, l.self_words)
  | None -> (0, 0.0, 0.0)

let names t = Hashtbl.fold (fun n _ acc -> n :: acc) t.layers [] |> List.sort compare

(* Spans closed during the kept operations, in closing order. *)
let kept t = List.rev t.kept_rev

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"op\":%d,\"span\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%.0f}\n"
        s.op s.id s.parent s.name s.start_ns s.end_ns s.minor_words)
    (kept t);
  close_out oc
