(* The protocol stack the rekey, relay and churn workloads own.

   The wiring copies [Driver.Improved]'s plain dispatch path — a frame
   that arrives is handed to [Leader.receive] or [Member.receive], and
   every reply goes out through [Wire.Frame.encode] and
   [Netsim.Network.send] — so that each layer boundary is a public call
   made from this file, where it can be counted and, in a traced run,
   wrapped in a span. The leader journals through [Journal], the epoch
   [Store.Vault] and the [Delivery] queues, all over one [Store.Mem]
   disk reached through a counting backend shim. *)

open Enclaves

type counters = {
  mutable frames : int;
  mutable wire_bytes : int;
  mutable store_calls : int;
  mutable store_bytes : int;
  mutable fsyncs : int;
}

type t = {
  sim : Netsim.Sim.t;
  net : Netsim.Network.t;
  leader : Leader.t;
  members : Member.t array;
  delivery : Delivery.t;
  spans : Spans.t;
  c : counters;
  mutable sent_frames : Wire.Frame.t list;
      (** Frames put on the wire while spans are on, newest first — the
          crypto tally reads them after the operation. *)
}

let leader_name = "leader"
let member_name i = Printf.sprintf "user%d" i

module Shim = struct
  type t = { mem : Store.Mem.t; spans : Spans.t; c : counters }

  let call t f =
    t.c.store_calls <- t.c.store_calls + 1;
    Spans.wrap t.spans "store" f

  let pwrite t ~file ~off data =
    t.c.store_bytes <- t.c.store_bytes + String.length data;
    call t (fun () -> Store.Mem.pwrite t.mem ~file ~off data)

  let read t ~file = call t (fun () -> Store.Mem.read t.mem ~file)

  let fsync t ~file =
    t.c.fsyncs <- t.c.fsyncs + 1;
    call t (fun () -> Store.Mem.fsync t.mem ~file)

  let rename t ~src ~dst = call t (fun () -> Store.Mem.rename t.mem ~src ~dst)
  let remove t ~file = call t (fun () -> Store.Mem.remove t.mem ~file)
end

let dispatch t ~src frames =
  List.iter
    (fun (f : Wire.Frame.t) ->
      let bytes = Spans.wrap t.spans "wire.encode" (fun () -> Wire.Frame.encode f) in
      t.c.frames <- t.c.frames + 1;
      t.c.wire_bytes <- t.c.wire_bytes + String.length bytes;
      if Spans.enabled t.spans then t.sent_frames <- f :: t.sent_frames;
      Spans.wrap t.spans "netsim.send" (fun () ->
          Netsim.Network.send t.net ~src ~dst:f.Wire.Frame.recipient bytes))
    frames

let run t = Spans.wrap t.spans "netsim.run" (fun () -> Netsim.Sim.run t.sim)
let leader_api t f = dispatch t ~src:leader_name (Spans.wrap t.spans "leader.api" f)

let member_api t i f =
  dispatch t ~src:(member_name i) (Spans.wrap t.spans "member.api" f)

(* [n] members, each joined in turn and run to quiescence — the same
   sequence [Driver.Improved] clusters are built with. *)
let create ~seed ~spans n =
  let sim = Netsim.Sim.create ~seed () in
  let net = Netsim.Network.create ~sim () in
  let rng = Netsim.Sim.rng sim in
  let c = { frames = 0; wire_bytes = 0; store_calls = 0; store_bytes = 0; fsyncs = 0 } in
  let disk =
    Store.Backend.pack (module Shim) { Shim.mem = Store.Mem.create (); spans; c }
  in
  let directory = List.init n (fun i -> (member_name i, member_name i ^ "-pw")) in
  let delivery = Delivery.create ~disk () in
  let leader =
    Leader.create ~self:leader_name ~rng ~directory
      ~journal:(Journal.create ~disk ())
      ~vault:(Store.Vault.create ~disk ())
      ~delivery ()
  in
  let members =
    Array.of_list
      (List.map
         (fun (self, password) -> Member.create ~self ~leader:leader_name ~password ~rng)
         directory)
  in
  let t = { sim; net; leader; members; delivery; spans; c; sent_frames = [] } in
  Netsim.Network.register net leader_name (fun bytes ->
      let via = Netsim.Network.delivering_via net in
      dispatch t ~src:leader_name
        (Spans.wrap spans "leader.receive" (fun () -> Leader.receive leader ?via bytes)));
  Array.iter
    (fun m ->
      let self = Member.self m in
      Netsim.Network.register net self (fun bytes ->
          dispatch t ~src:self
            (Spans.wrap spans "member.receive" (fun () -> Member.receive m bytes))))
    members;
  Array.iteri
    (fun i m ->
      member_api t i (fun () -> Member.join m);
      ignore (run t))
    members;
  t

let epoch t =
  match Leader.group_key t.leader with Some g -> g.Types.epoch | None -> -1

let member_epoch m =
  match Member.group_key m with Some g -> g.Types.epoch | None -> -1

(* The frames sent while spans were on since the last call. *)
let take_frames t =
  let frames = t.sent_frames in
  t.sent_frames <- [];
  frames
