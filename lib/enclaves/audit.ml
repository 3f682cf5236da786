open Sym_crypto
module F = Wire.Frame
module P = Wire.Payload

type anomaly =
  | Replayed_admin of { recipient : Types.agent; occurrences : int }
  | Forged_frame of { recipient : Types.agent; label : F.label }
  | Stale_rekey of { recipient : Types.agent; epoch : int; current : int }
  | Stale_delivery of { recipient : Types.agent; seq : int }
  | Handshake_flood of {
      claimed : Types.agent;
      attempts : int;
      via_socket : int;
          (** Attempts that arrived over the claimed sender's own
              connection. *)
      via_foreign : int;  (** Attempts over some other member's socket. *)
      via_wire : int;  (** Raw wire injections with no socket behind them. *)
    }
  | Framing_suspected of {
      victim : Types.agent;
      off_path : int;
      on_path : int;
    }
  | Quarantine of { suspect : Types.agent }
  | Degraded_mode of { mode : string }

let pp_anomaly fmt = function
  | Replayed_admin { recipient; occurrences } ->
      Format.fprintf fmt "admin frame to %s delivered %d times" recipient
        occurrences
  | Forged_frame { recipient; label } ->
      Format.fprintf fmt "forged %s frame delivered to %s"
        (F.label_to_string label) recipient
  | Stale_rekey { recipient; epoch; current } ->
      Format.fprintf fmt
        "stale rekey to %s: delivered epoch %d does not exceed current %d"
        recipient epoch current
  | Stale_delivery { recipient; seq } ->
      Format.fprintf fmt
        "store-and-forward record seq %d delivered to %s beyond the epoch \
         window (flagged stale)"
        seq recipient
  | Handshake_flood { claimed; attempts; via_socket; via_foreign; via_wire } ->
      Format.fprintf fmt
        "%d AuthInitReq frames delivered to the leader claiming to be %s \
         (pre-auth flood; path: %d own socket, %d foreign socket, %d wire)"
        attempts claimed via_socket via_foreign via_wire
  | Framing_suspected { victim; off_path; on_path } ->
      Format.fprintf fmt
        "leader-bound traffic claiming %s is dominated by frames %s provably \
         never originated (%d off-path vs %d on-path) — framing suspected"
        victim victim off_path on_path
  | Quarantine { suspect } ->
      Format.fprintf fmt "the leader quarantined %s (containment notice)"
        suspect
  | Degraded_mode { mode } ->
      Format.fprintf fmt
        "the leader announced degraded mode %S (storage pressure)" mode

type report = {
  handshakes_completed : int;
  admin_delivered : int;
  closes : int;
  anomalies : anomaly list;
}

let clean r = r.anomalies = []

(* Per-member audit state: the long-term key from the directory, the
   session key currently in force (learned from AuthKeyDist), and the
   highest group-key epoch genuinely delivered to this member. *)
type session = { pa : Key.t; mutable ka : Key.t option; mutable epoch : int }

let quarantine_prefix = "quarantined:"

let quarantined_of note =
  let n = String.length quarantine_prefix in
  if String.length note > n && String.sub note 0 n = quarantine_prefix then
    Some (String.sub note n (String.length note - n))
  else None

let degraded_prefix = "degraded:"

let degraded_of note =
  let n = String.length degraded_prefix in
  if String.length note > n && String.sub note 0 n = degraded_prefix then
    Some (String.sub note n (String.length note - n))
  else None

(* Leader-bound frames per claimed sender above which traffic is
   flood-grade: a handshake flood, or a framing when mostly off-path. *)
let flood_threshold = 10

let run ~directory ~leader trace =
  let sessions = Hashtbl.create 8 in
  List.iter
    (fun (user, password) ->
      Hashtbl.replace sessions user
        { pa = Key.long_term ~user ~password; ka = None; epoch = 0 })
    directory;
  let handshakes = ref 0 and admin = ref 0 and closes = ref 0 in
  let anomalies = ref [] in
  (* Count deliveries of identical admin frames per recipient. *)
  let admin_seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  (* Pre-auth handshake pressure per claimed sender — split by the
     injection path the trace vouches for — and quarantine notices
     already surfaced (one anomaly per suspect, not one per notified
     member). *)
  let preauth_seen : (string, int * int * int) Hashtbl.t = Hashtbl.create 16 in
  (* Injection-path split of ALL leader-bound frames per claimed
     sender, pre-auth or not: the replay flavor of framing rides
     sealed session traffic, not handshakes. *)
  let paths_seen : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let quarantined : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Degraded-mode announcements already surfaced (one anomaly per
     announced rung, however many members heard the broadcast; the
     "healthy" all-clear is operational news, not an anomaly). *)
  let degraded_seen : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let member_of (frame : F.t) ~field =
    Hashtbl.find_opt sessions (field frame)
  in
  let flag a = anomalies := a :: !anomalies in
  (* Is this frame on-path for its claimed sender? The trace's [via]
     is transport truth: [Via_socket claimed] means the claimed sender
     (or a full compromise of its endpoint) really originated it;
     anything else means it provably did not. *)
  let on_path (frame : F.t) via =
    match via with
    | Netsim.Trace.Via_socket owner -> owner = frame.F.sender
    | Netsim.Trace.Via_wire -> false
  in
  let audit_delivery ~via payload =
    match F.decode payload with
    | Error _ -> ()
    | Ok frame ->
        if frame.F.recipient = leader && Hashtbl.mem sessions frame.F.sender
        then begin
          let onp, offp =
            Option.value ~default:(0, 0)
              (Hashtbl.find_opt paths_seen frame.F.sender)
          in
          Hashtbl.replace paths_seen frame.F.sender
            (if on_path frame via then (onp + 1, offp) else (onp, offp + 1))
        end;
        (match frame.F.label with
        | F.Auth_key_dist -> (
            (* Leader -> member: opens under the member's P_a. *)
            match member_of frame ~field:(fun f -> f.F.recipient) with
            | None -> ()
            | Some s -> (
                match Sealed_channel.open_ ~key:s.pa frame with
                | Ok plaintext -> (
                    match P.decode_auth_key_dist plaintext with
                    | Ok { P.ka; _ } when String.length ka = Key.size ->
                        (* Idempotent duplicate replies install the
                           same key; count distinct keys only. *)
                        let key = Key.of_raw Key.Session ka in
                        (match s.ka with
                        | Some k when Key.equal k key -> ()
                        | _ ->
                            s.ka <- Some key;
                            incr handshakes)
                    | Ok _ | Error _ ->
                        flag
                          (Forged_frame
                             { recipient = frame.F.recipient; label = frame.F.label }))
                | Error _ ->
                    (* Sealed under something other than P_a: either a
                       forgery or a frame for a session the directory
                       does not cover. Flag it. *)
                    flag
                      (Forged_frame
                         { recipient = frame.F.recipient; label = frame.F.label })))
        | F.Admin_msg -> (
            match member_of frame ~field:(fun f -> f.F.recipient) with
            | None -> ()
            | Some ({ ka = Some key; _ } as s) -> (
                match Sealed_channel.open_ ~key frame with
                | Ok plaintext ->
                    incr admin;
                    let first = not (Hashtbl.mem admin_seen payload) in
                    let count =
                      1
                      + Option.value ~default:0 (Hashtbl.find_opt admin_seen payload)
                    in
                    Hashtbl.replace admin_seen payload count;
                    (* Epoch regression check on DISTINCT payloads only:
                       a network-duplicated frame is already reported as
                       Replayed_admin, not also as a stale rekey. *)
                    if first then (
                      match P.decode_admin_body plaintext with
                      | Ok { P.x = Wire.Admin.New_group_key { epoch; _ }; _ }
                        ->
                          if epoch <= s.epoch then
                            flag
                              (Stale_rekey
                                 {
                                   recipient = frame.F.recipient;
                                   epoch;
                                   current = s.epoch;
                                 })
                          else s.epoch <- epoch
                      | Ok { P.x = Wire.Admin.Queued { seq; stale; x }; _ } ->
                          (* Drained store-and-forward traffic. A
                             stale-flagged record is the epoch-window
                             policy's deliver-as-stale arm — exactly
                             what the auditor must surface. A fresh
                             drained rekey may legitimately repeat the
                             member's current epoch (the live rekey
                             raced the drain and the leader freshened
                             the wrapper), so only a strict regression
                             is anomalous. *)
                          if stale then
                            flag
                              (Stale_delivery
                                 { recipient = frame.F.recipient; seq })
                          else (
                            match x with
                            | Wire.Admin.New_group_key { epoch; _ } ->
                                if epoch < s.epoch then
                                  flag
                                    (Stale_rekey
                                       {
                                         recipient = frame.F.recipient;
                                         epoch;
                                         current = s.epoch;
                                       })
                                else s.epoch <- max s.epoch epoch
                            | _ -> ())
                      | Ok { P.x = Wire.Admin.Notice note; _ } -> (
                          (* A containment broadcast: the leader
                             quarantined a suspect. One anomaly per
                             suspect, however many members heard it. *)
                          match quarantined_of note with
                          | Some suspect
                            when not (Hashtbl.mem quarantined suspect) ->
                              Hashtbl.replace quarantined suspect ();
                              flag (Quarantine { suspect })
                          | Some _ -> ()
                          | None -> (
                              match degraded_of note with
                              | Some mode
                                when mode <> "healthy"
                                     && not (Hashtbl.mem degraded_seen mode)
                                ->
                                  Hashtbl.replace degraded_seen mode ();
                                  flag (Degraded_mode { mode })
                              | Some _ | None -> ()))
                      | Ok _ | Error _ -> ())
                | Error _ ->
                    flag
                      (Forged_frame
                         { recipient = frame.F.recipient; label = frame.F.label }))
            | Some { ka = None; _ } ->
                flag
                  (Forged_frame
                     { recipient = frame.F.recipient; label = frame.F.label }))
        | F.Req_close -> (
            (* Member -> leader: opens under the member's session key. *)
            match member_of frame ~field:(fun f -> f.F.sender) with
            | Some ({ ka = Some key; _ } as s)
              when frame.F.recipient = leader -> (
                match Sealed_channel.open_ ~key frame with
                | Ok _ ->
                    incr closes;
                    s.ka <- None
                | Error _ ->
                    (* Possibly a replay from an earlier session of the
                       same member: authentic-looking only under a
                       retired key. The live leader rejects it; the
                       auditor reports it as forged for this session. *)
                    flag
                      (Forged_frame
                         { recipient = frame.F.recipient; label = frame.F.label }))
            | _ -> ())
        | F.Auth_init_req ->
            (* Pre-auth pressure per claimed sender, split by injection
               path. The frames need not be valid — the flood signal is
               volume on the unauthenticated surface, which no key
               check filters — but the path tells an operator whether
               the claimed name or the wire is the problem. *)
            if frame.F.recipient = leader then begin
              let socket, foreign, wire =
                Option.value ~default:(0, 0, 0)
                  (Hashtbl.find_opt preauth_seen frame.F.sender)
              in
              let counts =
                match via with
                | Netsim.Trace.Via_wire -> (socket, foreign, wire + 1)
                | Netsim.Trace.Via_socket owner when owner = frame.F.sender ->
                    (socket + 1, foreign, wire)
                | Netsim.Trace.Via_socket _ -> (socket, foreign + 1, wire)
              in
              Hashtbl.replace preauth_seen frame.F.sender counts
            end
        | _ -> ())
  in
  List.iter
    (function
      | Netsim.Trace.Delivered { payload; via; _ } -> audit_delivery ~via payload
      | Netsim.Trace.Sent _ | Netsim.Trace.Dropped _ | Netsim.Trace.Injected _
        ->
          ())
    (Netsim.Trace.entries trace);
  Hashtbl.iter
    (fun payload count ->
      if count > 1 then
        match F.decode payload with
        | Ok frame ->
            flag (Replayed_admin { recipient = frame.F.recipient; occurrences = count })
        | Error _ -> ())
    admin_seen;
  Hashtbl.iter
    (fun claimed (via_socket, via_foreign, via_wire) ->
      let attempts = via_socket + via_foreign + via_wire in
      if attempts > flood_threshold then
        flag
          (Handshake_flood
             { claimed; attempts; via_socket; via_foreign; via_wire }))
    preauth_seen;
  (* Framing detector: a directory member whose leader-bound traffic
     volume is flood-grade AND dominated by frames it provably never
     originated (off-path per the transport's [via]) is being framed —
     whatever evidence that traffic generated belongs to the injector,
     not the member. *)
  Hashtbl.iter
    (fun victim (on_path, off_path) ->
      if off_path > flood_threshold && off_path > on_path then
        flag (Framing_suspected { victim; off_path; on_path }))
    paths_seen;
  {
    handshakes_completed = !handshakes;
    admin_delivered = !admin;
    closes = !closes;
    anomalies = List.rev !anomalies;
  }
