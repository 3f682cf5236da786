(* Exploration engine: level-synchronized BFS over any bounded model,
   with dense state ids, deduplicated edges in flat columns, and
   optional multicore frontier expansion. [Make] is the engine; this
   module's own API is its instance over the §4 [Model].

   Determinism: states are discovered in exactly the order a FIFO-queue
   BFS would discover them (a level-synchronized sweep in frontier
   order is the same order), and the merge phase that assigns ids and
   records edges is always sequential — so results are bit-for-bit
   identical for every [jobs] value. *)

(* Minimal growable array: the stdlib gains Dynarray only in 5.2. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    let cap = Array.length v.data in
    if v.len = cap then begin
      let data = Array.make (max 16 (2 * cap)) x in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

type report = {
  name : string;
  holds : bool;
  checked : int;
  violations : string list;
}

module type MODEL = sig
  type config
  type state
  type move

  val default_config : config
  val initial : state
  val successors : config -> state -> (move * state) list
  val canon : state -> string
end

(* The intern table: canonical keys compared as strings, not by the
   polymorphic compare. *)
module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Make (M : MODEL) = struct
  type result = {
    states : M.state array;
    src : int array;
    moves : M.move array;
    dst : int array;
    parent : int array;
    truncated : bool;
    frontier_dropped : int;
  }

  (* A source's successors with their canonical keys, the costly part
     of a step, so the pool computes them off the sequential merge. *)
  let expand config q =
    List.map (fun (move, q') -> (move, q', M.canon q')) (M.successors config q)

  (* Parallel frontier expansion: [expand] every frontier entry, into
     an index-aligned array so the caller sees them in frontier order
     no matter how the work was scheduled.

     The helper domains are spawned once per exploration and parked on
     a condition variable between BFS levels — spawning per level costs
     more than the levels themselves on this model's shallow frontiers.
     Each level is described by a fresh [round] record; a straggler
     from the previous level still holds the previous record, whose
     exhausted counter sends it straight back to sleep, so it can
     never touch the new level's arrays. Every [out] slot is written by
     exactly one domain, and the SC read of [completed] publishes those
     writes to the merge phase. *)
  module Pool = struct
    type round = {
      frontier : (int * M.state) array;
      out : (M.move * M.state * string) list array;
      next : int Atomic.t;
      completed : int Atomic.t;
    }

    type t = {
      config : M.config;
      mutable current : round;
      mutable generation : int;
      mutable stop : bool;
      m : Mutex.t;
      wake : Condition.t;
      mutable domains : unit Domain.t list;
    }

    let steal config r =
      let n = Array.length r.frontier in
      let rec go () =
        let i = Atomic.fetch_and_add r.next 1 in
        if i < n then begin
          r.out.(i) <- expand config (snd r.frontier.(i));
          Atomic.incr r.completed;
          go ()
        end
      in
      go ()

    let empty_round () =
      { frontier = [||]; out = [||]; next = Atomic.make 0;
        completed = Atomic.make 0 }

    let create ~config ~helpers =
      let t =
        { config; current = empty_round (); generation = 0; stop = false;
          m = Mutex.create (); wake = Condition.create (); domains = [] }
      in
      let worker () =
        let my_gen = ref 0 in
        let rec loop () =
          Mutex.lock t.m;
          while t.generation = !my_gen && not t.stop do
            Condition.wait t.wake t.m
          done;
          my_gen := t.generation;
          let r = t.current and stop = t.stop in
          Mutex.unlock t.m;
          if not stop then begin
            steal config r;
            loop ()
          end
        in
        loop ()
      in
      t.domains <- List.init helpers (fun _ -> Domain.spawn worker);
      t

    let run t frontier =
      let n = Array.length frontier in
      let r =
        { frontier; out = Array.make n []; next = Atomic.make 0;
          completed = Atomic.make 0 }
      in
      Mutex.lock t.m;
      t.current <- r;
      t.generation <- t.generation + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.m;
      steal t.config r;
      while Atomic.get r.completed < n do
        Domain.cpu_relax ()
      done;
      r.out

    let shutdown t =
      Mutex.lock t.m;
      t.stop <- true;
      Condition.broadcast t.wake;
      Mutex.unlock t.m;
      List.iter Domain.join t.domains
  end

  (* The BFS behind [run]. The intern table (canon -> id) lives only
     here, so the result does not hold it. Without a pool each source
     is expanded when the sweep reaches it, so no level's successors
     are ever held at once.

     Truncation accounting: when the [max_states] cap is hit, the edge
     to the unstored destination is NOT recorded (the seed engine
     recorded it, making [edge_count] disagree with what [iter_edges]
     visits); instead each dropped successor occurrence is counted in
     [frontier_dropped], and [truncated] is derived from that count
     once at the end. Edges between two stored states are always
     recorded, including after the cap. *)
  let bfs ~config ~max_states ~pool =
    let index = Keys.create 4096 in
    let states = Vec.create () and parent = Vec.create () in
    let src = Vec.create () and moves = Vec.create () and dst = Vec.create () in
    let dropped = ref 0 in
    let init = M.initial in
    Keys.add index (M.canon init) 0;
    Vec.push states init;
    Vec.push parent (-1);
    let merge next src_id succs =
      (* A source is expanded exactly once, so per-source dedup of
         (move, dst) is global dedup — no O(E) edge-seen table. The
         successor lists are short (a handful of moves), so a linear
         scan beats hashing the moves. *)
      let seen = ref [] in
      List.iter
        (fun (move, q', key') ->
          let dst_id =
            match Keys.find index key' with
            | id -> id
            | exception Not_found ->
                if Keys.length index >= max_states then begin
                  incr dropped;
                  -1
                end
                else begin
                  let id = Keys.length index in
                  Keys.add index key' id;
                  Vec.push states q';
                  (* A new destination is never in [seen], so the edge
                     recorded below, number [src.len], is the one that
                     discovers [q']. *)
                  Vec.push parent src.Vec.len;
                  Vec.push next (id, q');
                  id
                end
          in
          if
            dst_id >= 0
            && not (List.exists (fun (d, m) -> d = dst_id && m = move) !seen)
          then begin
            seen := (dst_id, move) :: !seen;
            Vec.push src src_id;
            Vec.push moves move;
            Vec.push dst dst_id
          end)
        succs
    in
    let frontier = ref [| (0, init) |] in
    while Array.length !frontier > 0 do
      let next = Vec.create () in
      (match pool with
      | Some pool ->
          let succs = Pool.run pool !frontier in
          Array.iteri (fun i (id, _) -> merge next id succs.(i)) !frontier
      | None ->
          Array.iter (fun (id, q) -> merge next id (expand config q)) !frontier);
      frontier := Vec.to_array next
    done;
    let dropped = !dropped in
    { states = Vec.to_array states; src = Vec.to_array src;
      moves = Vec.to_array moves; dst = Vec.to_array dst;
      parent = Vec.to_array parent; truncated = dropped > 0;
      frontier_dropped = dropped }

  (* One pool per exploration, torn down even if the search raises. *)
  let with_pool ~config ~jobs f =
    if jobs <= 1 then f None
    else begin
      let pool = Pool.create ~config ~helpers:(jobs - 1) in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
          f (Some pool))
    end

  let run ?(config = M.default_config) ?(max_states = 200_000) ?(jobs = 1) ()
      =
    with_pool ~config ~jobs (fun pool -> bfs ~config ~max_states ~pool)

  let state_count r = Array.length r.states
  let edge_count r = Array.length r.src
  let iter_states r f = Array.iter f r.states

  let iter_edges r f =
    Array.iteri
      (fun e move -> f r.states.(r.src.(e)) move r.states.(r.dst.(e)))
      r.moves

  let find_state r p = Array.find_opt p r.states

  let find_edge r p =
    Array.find_mapi
      (fun e move ->
        let q = r.states.(r.src.(e)) and q' = r.states.(r.dst.(e)) in
        if p q move q' then Some (q, move, q') else None)
      r.moves

  let path_of_id r id =
    let rec build id acc =
      let e = r.parent.(id) in
      if e < 0 then acc
      else build r.src.(e) ((r.moves.(e), r.states.(id)) :: acc)
    in
    build id []

  (* No intern table is kept, so [q] is looked up among the stored
     states: by physical identity, which finds every state the finders
     and reports hand out, and only for a copy by key, with one [canon]
     per stored state. *)
  let path_to r q =
    let id =
      match Array.find_index (fun s -> s == q) r.states with
      | Some _ as id -> id
      | None ->
          let key = M.canon q in
          Array.find_index (fun s -> String.equal (M.canon s) key) r.states
    in
    match id with None -> [] | Some id -> path_of_id r id

  (* Only the first [max_violations] failures are rendered as paths;
     the rest are counted. [scan] calls its argument once per failure,
     with a thunk for that failure's path. *)
  let max_violations = 3

  let report ~step ~name ~checked scan =
    let n = ref 0 and violations = ref [] in
    scan (fun path ->
        incr n;
        if !n <= max_violations then
          let steps = List.map (fun (move, q) -> step move q) (path ()) in
          violations := String.concat " ; " steps :: !violations);
    { name; holds = !n = 0; checked; violations = List.rev !violations }

  let state_report r ~step ~name p =
    report ~step ~name ~checked:(Array.length r.states) (fun fail ->
        Array.iteri
          (fun id q -> if not (p q) then fail (fun () -> path_of_id r id))
          r.states)

  let edge_report r ~step ~name p =
    report ~step ~name ~checked:(edge_count r) (fun fail ->
        Array.iteri
          (fun e move ->
            let src = r.src.(e) and q' = r.states.(r.dst.(e)) in
            if not (p r.states.(src) move q') then
              fail (fun () -> path_of_id r src @ [ (move, q') ]))
          r.moves)
end

include Make (Model)

let pp_path fmt path =
  List.iter
    (fun (move, q) ->
      Format.fprintf fmt "  %a -> usr=%a lead=%a@." Model.pp_move move
        Model.pp_user_state q.Model.usr Model.pp_leader_state q.Model.lead)
    path

(* The seed engine, kept verbatim for differential benchmarking
   (bench: model-checker/explore-baseline) and as an independent
   oracle for state counts in the tests. Its known truncation quirk —
   edges recorded to destinations that were never stored — is kept
   too, since it only manifests on truncated runs. *)
module Baseline = struct
  type t = {
    states : (string, Model.state) Hashtbl.t;
    edges : (string * Model.move * string) list;
    parents : (string, string * Model.move) Hashtbl.t;
    truncated : bool;
  }

  let run ?(config = Model.default_config) ?(max_states = 200_000) () =
    let states = Hashtbl.create 4096 in
    let parents = Hashtbl.create 4096 in
    let edges = ref [] in
    let queue = Queue.create () in
    let truncated = ref false in
    let init = Model.initial in
    let init_key = Model.canon init in
    Hashtbl.replace states init_key init;
    Queue.add (init_key, init) queue;
    while not (Queue.is_empty queue) do
      let key, q = Queue.pop queue in
      List.iter
        (fun (move, q') ->
          let key' = Model.canon q' in
          edges := (key, move, key') :: !edges;
          if not (Hashtbl.mem states key') then
            if Hashtbl.length states >= max_states then truncated := true
            else begin
              Hashtbl.replace states key' q';
              Hashtbl.replace parents key' (key, move);
              Queue.add (key', q') queue
            end)
        (Model.successors config q)
    done;
    { states; edges = !edges; parents; truncated = !truncated }

  let state_count t = Hashtbl.length t.states
  let edge_count t = List.length t.edges
end
