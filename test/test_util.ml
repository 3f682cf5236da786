(* Shared helpers for protocol tests: a synchronous frame router that
   delivers frames instantly between one leader and a set of members,
   in FIFO order. Used for state-machine conformance tests; the
   netsim-based Driver covers asynchronous delivery. *)

module F = Wire.Frame

type 'm router = {
  deliver_leader : string -> Wire.Frame.t list;
  deliver_member : 'm -> string -> Wire.Frame.t list;
  member_of : Enclaves.Types.agent -> 'm option;
  leader_name : Enclaves.Types.agent;
}

let route router frames =
  let q = Queue.create () in
  List.iter (fun f -> Queue.add f q) frames;
  while not (Queue.is_empty q) do
    let f = Queue.pop q in
    let bytes = F.encode f in
    let replies =
      if f.F.recipient = router.leader_name then router.deliver_leader bytes
      else
        match router.member_of f.F.recipient with
        | Some m -> router.deliver_member m bytes
        | None -> []
    in
    List.iter (fun r -> Queue.add r q) replies
  done

let improved_router leader members =
  {
    deliver_leader = Enclaves.Leader.receive leader;
    deliver_member = Enclaves.Member.receive;
    member_of = (fun who -> List.assoc_opt who members);
    leader_name = Enclaves.Leader.self leader;
  }

let legacy_router leader members =
  {
    deliver_leader = Enclaves.Legacy_leader.receive leader;
    deliver_member = Enclaves.Legacy_member.receive;
    member_of = (fun who -> List.assoc_opt who members);
    leader_name = Enclaves.Legacy_leader.self leader;
  }

(* Check that [xs] is a prefix of [ys] under [eq]. *)
let rec is_prefix eq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' -> eq x y && is_prefix eq xs' ys'

(* The (author, body) of every app message a member delivered since its
   events were last drained, oldest first. *)
let app_received m =
  List.filter_map
    (function
      | Enclaves.Member.App_received { author; body } -> Some (author, body)
      | _ -> None)
    (Enclaves.Member.drain_events m)

let legacy_app_received m =
  List.filter_map
    (function
      | Enclaves.Legacy_member.App_received { author; body } ->
          Some (author, body)
      | _ -> None)
    (Enclaves.Legacy_member.drain_events m)

let has_reject_member m =
  List.exists
    (function Enclaves.Member.Rejected _ -> true | _ -> false)
    (Enclaves.Member.drain_events m)

let has_reject_leader l =
  List.exists
    (function Enclaves.Leader.Rejected _ -> true | _ -> false)
    (Enclaves.Leader.drain_events l)
