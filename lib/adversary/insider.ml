(* Compromised-insider actor: the agent that turns a
   {!Netsim.Intruder} campaign plan into actual hostile frames on an
   {!Enclaves.Driver.Improved} cluster.

   The insider is a real directory member — it joined with a genuine
   password, holds (or held) a real session key and group key — so its
   campaigns model the paper's hardest case: abuse with legitimate key
   material, not an outsider's noise. Frame crafting lives here; the
   deterministic schedule (when each burst fires, how large it is)
   lives in the netsim plan, so replaying a seed replays the attack
   tick-for-tick. *)

module F = Wire.Frame
module Net = Netsim.Network
module D = Enclaves.Driver
module I = Netsim.Intruder

type t = {
  driver : D.Improved.t;
  insider : Enclaves.Types.agent;
  password : string;
  intr : I.t;
  rng : Prng.Splitmix.t;  (* frame-crafting randomness; private split *)
  mutable retired : Sym_crypto.Key.t list;
      (* expired key material harvested before rekeys/leaves — what
         the forge arm seals under *)
}

let create ~driver ~insider ~password () =
  let rng = Prng.Splitmix.split (Netsim.Sim.rng (D.Improved.sim driver)) in
  { driver; insider; password; intr = I.create ~rng (); rng; retired = [] }

let counters t = I.counters_named (I.counters t.intr)

let leader_name t = Enclaves.Leader.self (D.Improved.leader t.driver)

(* The insider's traffic legitimately arrives over its own connection
   — it is a real member — so injections carry its socket provenance.
   Wire-level (pathless) injection is the Outsider's business. *)
let inject t payload =
  Net.inject
    (D.Improved.net t.driver)
    ~origin:t.insider ~dst:(leader_name t) payload

(* Pocket the insider's current session key before it is retired — the
   forge arm later seals frames under it, modelling a compromised
   member reusing key material the group has since rotated past. *)
let harvest t =
  match
    Enclaves.Member.session_key (D.Improved.member t.driver t.insider)
  with
  | Some k ->
      t.retired <- k :: t.retired;
      true
  | None -> false

let retired_keys t = t.retired

(* --- the arms --- *)

(* A1: junk AuthInitReq volume — half under throwaway ghost names
   (exercising the shared anonymous admission bucket), half under the
   insider's own name (exercising its per-peer bucket, and feeding
   [Malformed] evidence on every frame that gets served). *)
let flood t burst =
  let lname = leader_name t in
  for i = 1 to burst do
    let sender =
      if i mod 2 = 0 then t.insider
      else Printf.sprintf "ghost-%d" (Prng.Splitmix.next_int t.rng 1000)
    in
    let body = Bytes.to_string (Prng.Splitmix.next_bytes t.rng 24) in
    inject t
      (F.encode (F.make ~label:F.Auth_init_req ~sender ~recipient:lname ~body))
  done;
  I.record (I.counters t.intr) I.Preauth_flood burst;
  burst

(* Handshake storm: {e valid} fresh-nonce AuthInitReq frames under the
   insider's own identity — each one the leader serves restarts the
   handshake and churns its half-open table, and none is ever
   completed. Individually these frames are indistinguishable from an
   honest join; only their rate is hostile, which is exactly what the
   sentinel's [Preauth_pressure] accumulation scores. *)
let storm t burst =
  let lname = leader_name t in
  for _ = 1 to burst do
    let m =
      Enclaves.Member.create ~self:t.insider ~leader:lname
        ~password:t.password ~rng:t.rng
    in
    List.iter (fun f -> inject t (F.encode f)) (Enclaves.Member.join m)
  done;
  I.record (I.counters t.intr) I.Handshake_storm burst;
  burst

(* A2: frames sealed under expired or mismatched key material. With a
   harvested key the forgery is literal key reuse; without one, a
   random session key stands in — to the leader both are the same MAC
   failure. *)
let forge t burst =
  let lname = leader_name t in
  let key =
    match t.retired with
    | k :: _ -> k
    | [] -> Sym_crypto.Key.fresh Sym_crypto.Key.Session t.rng
  in
  for i = 1 to burst do
    let label = if i mod 2 = 0 then F.Admin_ack else F.App_data in
    let frame =
      Enclaves.Sealed_channel.seal ~rng:t.rng ~key ~label ~sender:t.insider
        ~recipient:lname
        (Bytes.to_string (Prng.Splitmix.next_bytes t.rng 16))
    in
    inject t (F.encode frame)
  done;
  I.record (I.counters t.intr) I.Forge_burst burst;
  burst

(* A3: verbatim re-injection of genuine leader-bound frames the
   insider itself once sent — stale-nonce admin acks, old handshake
   legs, closed sessions' traffic. Only the insider's own frames are
   replayed: those are the ones whose MACs genuinely attribute to it.
   (Replaying OTHER members' captured frames is the framing vector —
   the victim's name is on the frame, so evidence lands on the victim;
   see DESIGN.md on why that is DoS-equivalent rather than worse.)
   Returns how many frames the trace could supply (a quiet wire bounds
   the replay). *)
let replay t burst =
  let lname = leader_name t in
  let replayable (f : F.t) =
    f.F.recipient = lname && f.F.sender = t.insider
    &&
    match f.F.label with
    | F.Admin_ack | F.App_data | F.Auth_ack_key | F.Req_close -> true
    | _ -> false
  in
  let captured =
    Netsim.Trace.payloads (Net.trace (D.Improved.net t.driver))
    |> List.filter_map (fun payload ->
           match F.decode payload with
           | Ok f when replayable f -> Some payload
           | Ok _ | Error _ -> None)
    |> List.rev (* newest first: the freshest nonces, the same verdict *)
  in
  let n = ref 0 in
  List.iteri
    (fun i payload ->
      if i < burst then begin
        inject t payload;
        incr n
      end)
    captured;
  I.record (I.counters t.intr) I.Replay_burst !n;
  !n

let fire t arm burst =
  match arm with
  | I.Preauth_flood -> flood t burst
  | I.Handshake_storm -> storm t burst
  | I.Forge_burst -> forge t burst
  | I.Replay_burst -> replay t burst
  | I.Frame_replay | I.Frame_flood ->
      invalid_arg "Insider.fire: framing arms belong to Adversary.Outsider"

(* Materialise the campaign's seeded plan into simulator events. *)
let launch t (c : I.campaign) =
  let sim = D.Improved.sim t.driver in
  let plan = I.plan t.intr c in
  List.iter
    (fun (time, burst) ->
      Netsim.Sim.schedule_at sim ~time (fun () -> ignore (fire t c.I.arm burst)))
    plan;
  List.length plan
