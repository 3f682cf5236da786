(* A bounded model of the DELIVERY PLANE: the store-and-forward queue
   between a leader L and one member A who goes offline once, under a
   Dolev-Yao intruder E who records every drained frame and can replay
   any of them, in any order, at any later point. The member-plane
   protocol (handshakes, nonce chains) is verified in {!Model}; this
   model abstracts the admin channel to "frames reach A while online"
   — a STRONGER adversary than the implementation faces, because here
   the nonce chain is erased and the member's cumulative delivery
   floor is the only duplicate guard. The questions the epoch-window
   re-seal design must answer:

   - can any combination of legitimate re-drains (at-least-once
     delivery) and intruder replays make the member APPLY one queued
     delivery twice — the A3-style replay obligation, re-checked at
     the delivery layer?
   - can a queued-then-drained rekey, fresh, re-sealed or flagged
     stale, ever REGRESS the member's group-key epoch?
   - do stale-flagged deliveries really apply NOTHING (the
     deliver-stale arm is observability, not authority)?

   Modelling choices, stated explicitly:

   - queued payloads are rekey notices (the only payload with
     state-changing authority in the model); a fresh drain freshens
     the wrapper to the CURRENT epoch — exactly the implementation's
     fire-time re-seal — while a stale drain carries the queued epoch
     but is flagged;
   - entries stay pending until the member's ack lands (M_ack), so the
     leader can legitimately re-drain an already-delivered entry — a
     crash or re-disconnect between drain and ack IS this move; the
     at-least-once story is modelled, not assumed away;
   - both policy arms (reject and deliver-stale) are explored
     nondeterministically on every beyond-window entry, so one run
     covers both configurations;
   - the member's floor is monotone and never reset — mirroring the
     implementation, where it survives session resets. *)

type bounds = { max_seq : int; max_epoch : int; width : int }

let default_bounds = { max_seq = 2; max_epoch = 3; width = 1 }

type frame = { f_seq : int; f_stale : bool; f_epoch : int }

type state = {
  epoch : int;  (* the group epoch at L *)
  a_online : bool;
  offline_done : bool;  (* one offline excursion per run *)
  a_epoch : int;  (* A's installed group-key epoch *)
  queue : (int * int) list;  (* pending (seq, queued-epoch), seq order *)
  next_seq : int;
  floor_q : int;  (* L's durable ack floor *)
  a_floor : int;  (* A's cumulative delivery floor *)
  applied : int list;  (* delivery seqs A applied (sorted) *)
  dup_applied : bool;  (* a seq was applied twice — the bug we hunt *)
  wire : frame list;  (* every drained frame E has recorded (sorted) *)
  deduped : bool;  (* a replay was absorbed by the floor *)
  resealed : bool;  (* an in-window aged entry drained fresh *)
  stale_delivered : bool;  (* a beyond-window entry reached A flagged *)
  rejected : bool;  (* a beyond-window entry was durably dropped *)
}

let initial =
  {
    epoch = 1;
    a_online = true;
    offline_done = false;
    a_epoch = 1;
    queue = [];
    next_seq = 0;
    floor_q = 0;
    a_floor = 0;
    applied = [];
    dup_applied = false;
    wire = [];
    deduped = false;
    resealed = false;
    stale_delivered = false;
    rejected = false;
  }

(* [No_sharing], so that the bytes depend on the value alone and not
   on which of its parts happen to be physically shared. *)
let canon q = Marshal.to_string q [ Marshal.No_sharing ]

let record_frame q f =
  if List.mem f q.wire then q
  else { q with wire = List.sort compare (f :: q.wire) }

type move =
  | M_offline
  | M_online
  | M_queue  (* L queues one payload for the offline A *)
  | M_rekey
  | M_drain of int  (* in-window entry drained fresh (re-sealed if aged) *)
  | M_drain_stale of int  (* beyond-window entry drained flagged stale *)
  | M_drain_reject of int  (* beyond-window entry durably dropped *)
  | M_ack  (* A's cumulative ack reaches L; the durable floor advances *)
  | M_deliver of frame  (* E delivers (or replays) a recorded frame *)

let pp_frame fmt { f_seq; f_stale; f_epoch } =
  Format.fprintf fmt "frame(seq=%d,stale=%b,epoch=%d)" f_seq f_stale f_epoch

let pp_move fmt = function
  | M_offline -> Format.pp_print_string fmt "A:offline"
  | M_online -> Format.pp_print_string fmt "A:online"
  | M_queue -> Format.pp_print_string fmt "L:queue"
  | M_rekey -> Format.pp_print_string fmt "L:rekey"
  | M_drain seq -> Format.fprintf fmt "L:drain-fresh(%d)" seq
  | M_drain_stale seq -> Format.fprintf fmt "L:drain-stale(%d)" seq
  | M_drain_reject seq -> Format.fprintf fmt "L:drain-reject(%d)" seq
  | M_ack -> Format.pp_print_string fmt "A:ack"
  | M_deliver f -> Format.fprintf fmt "E:deliver-%a" pp_frame f

(* The member's receive path — the checks the implementation makes in
   [Member.apply_admin] on a [Queued] wrapper: floor dedup first, then
   the stale flag (no state effect), then the epoch-staleness guard on
   the wrapped rekey. *)
let recv q (f : frame) =
  if not q.a_online then None
  else if f.f_seq < q.a_floor then
    if q.deduped then None (* no state change; skip the self-loop *)
    else Some { q with deduped = true }
  else
    let applied_before = List.mem f.f_seq q.applied in
    let q =
      {
        q with
        a_floor = f.f_seq + 1;
        applied =
          (if applied_before then q.applied
           else List.sort compare (f.f_seq :: q.applied));
        dup_applied = q.dup_applied || applied_before;
      }
    in
    if f.f_stale then Some { q with stale_delivered = true }
    else if f.f_epoch > q.a_epoch then Some { q with a_epoch = f.f_epoch }
    else Some q

let successors bounds q =
  let moves = ref [] in
  let add m s = moves := (m, s) :: !moves in

  (* One offline excursion per run: A drops off, L starts queueing. *)
  if q.a_online && not q.offline_done then
    add M_offline { q with a_online = false; offline_done = true };
  if not q.a_online then add M_online { q with a_online = true };

  (* L queues a rekey notice for the offline A at the current epoch. *)
  if (not q.a_online) && q.next_seq < bounds.max_seq then
    add M_queue
      {
        q with
        queue = q.queue @ [ (q.next_seq, q.epoch) ];
        next_seq = q.next_seq + 1;
      };

  (* The group rotates its key. A follows directly while online; while
     offline the rotation is what ages the queued entries. *)
  if q.epoch < bounds.max_epoch then
    add M_rekey
      {
        q with
        epoch = q.epoch + 1;
        a_epoch = (if q.a_online then q.epoch + 1 else q.a_epoch);
      };

  (* Drains: every pending entry, against the epoch-window policy.
     Entries stay pending until M_ack, so re-draining an entry whose
     ack is still in flight is a legitimate move — that is the crash /
     re-disconnect redelivery path, not an intruder capability. *)
  if q.a_online then
    List.iter
      (fun (seq, qe) ->
        let age = q.epoch - qe in
        if age <= bounds.width then
          add (M_drain seq)
            (record_frame
               { q with resealed = q.resealed || age > 0 }
               { f_seq = seq; f_stale = false; f_epoch = q.epoch })
        else begin
          add (M_drain_stale seq)
            (record_frame q { f_seq = seq; f_stale = true; f_epoch = qe });
          add (M_drain_reject seq)
            {
              q with
              queue = List.filter (fun (s, _) -> s <> seq) q.queue;
              rejected = true;
            }
        end)
      q.queue;

  (* A's cumulative ack lands at L: the durable floor catches up and
     everything below it is reclaimed. *)
  if q.a_floor > q.floor_q then
    add M_ack
      {
        q with
        floor_q = q.a_floor;
        queue = List.filter (fun (s, _) -> s >= q.a_floor) q.queue;
      };

  (* E owns the wire: any recorded frame can be delivered again, in
     any order, at any time A is reachable. *)
  List.iter
    (fun f ->
      match recv q f with
      | Some q' when q' <> q -> add (M_deliver f) q'
      | Some _ | None -> ())
    q.wire;

  !moves

(* --- exploration: an {!Explore.Make} instance, uncapped so that no
   report can hold over a silently truncated graph --- *)

module E = Explore.Make (struct
  type config = bounds
  type nonrec state = state
  type nonrec move = move

  let default_config = default_bounds
  let initial = initial
  let successors = successors
  let canon = canon
end)

type result = E.result

let explore ?bounds () = E.run ?config:bounds ~max_states:max_int ()
let state_count = E.state_count
let edge_count = E.edge_count

let step move q =
  Format.asprintf
    "%a => epoch=%d a=(online=%b,epoch=%d,floor=%d) queue=[%s] floor_q=%d \
     applied=[%s]%s"
    pp_move move q.epoch q.a_online q.a_epoch q.a_floor
    (String.concat ";"
       (List.map (fun (s, e) -> Printf.sprintf "%d@%d" s e) q.queue))
    q.floor_q
    (String.concat ";" (List.map string_of_int q.applied))
    (if q.dup_applied then " DUP" else "")

let reports r =
  let no_duplicate =
    E.state_report r ~step ~name:"no delivery applied twice" (fun q ->
        not q.dup_applied)
  in
  let no_regression =
    E.edge_report r ~step ~name:"delivery never regresses member epoch"
      (fun q _move q' -> q'.a_epoch >= q.a_epoch)
  in
  let stale_inert =
    E.edge_report r ~step ~name:"stale deliveries apply nothing"
      (fun q move q' ->
        match move with
        | M_deliver { f_stale = true; _ } -> q'.a_epoch = q.a_epoch
        | _ -> true)
  in
  (* Non-vacuity: replays really fired and were absorbed, an aged entry
     really drained re-sealed, and both beyond-window arms really ran —
     the obligations above are not holding over an empty surface. *)
  let surface =
    let exists p = E.find_state r p <> None in
    {
      Explore.name = "delivery surface exercised";
      holds =
        exists (fun q -> q.deduped)
        && exists (fun q -> q.resealed)
        && exists (fun q -> q.stale_delivered)
        && exists (fun q -> q.rejected)
        && exists (fun q -> q.dup_applied = false && q.applied <> []);
      checked = state_count r;
      violations = [];
    }
  in
  [ no_duplicate; no_regression; stale_inert; surface ]
