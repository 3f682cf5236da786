(* A bounded model of the SENTINEL's containment ladder under a
   Dolev-Yao wire attacker running a framing campaign. Three
   principals are scored by the leader's sentinel:

   - V, an honest, responsive member. Its own socket produces at most
     [slip_cap] units of on-path evidence, all in ONE class — the
     model's encoding of the calibration invariant "honest noise alone
     stays below the quarantine threshold" (pinned empirically by the
     chaos suite and the calibration sweep, not re-proved here).
   - M, a compromised insider. Its hostile frames arrive over its own
     socket, so its evidence is on-path and spans TWO classes (MAC
     failures and replays, say), uncapped up to the score bounds.
   - W, the wire pseudo-peer. E's raw injections claiming V charge W
     on-path (one class, volume-corroborating) and V off-path.

   E owns the wire: it can inject framing frames at will (until the
   wire itself is contained — the driver's door), and can replay any
   suspicion snapshot ever shipped at the successor, in any order.
   Off-path evidence is modelled at FULL weight — the implementation
   discounts it by [wire_discount], so the modelled attacker is
   strictly stronger.

   The questions the attribution design must answer:

   - can ANY schedule of framing injections, honest slips, decay
     ticks, challenges and attestations push the honest victim to
     [Quarantined]?
   - can a level ever RATCHET DOWN — by decay, attestation relief, or
     a stale snapshot merge?
   - can a quarantine fire WITHOUT corroborated evidence (two live
     on-path classes, or on-path volume alone crossing the
     threshold)?
   - can a merge LOSE an escalation (the successor ending below either
     side), under arbitrary replay of stale snapshots?

   Scores are small integers with unit weights; decay is a global
   halving tick. The state space is exhaustively explored; obligations
   are {!Explore.report} values so the CLI's verify command gates
   on them uniformly. *)

type bounds = {
  rate_limit_at : int;
  quarantine_at : int;
  expel_at : int;
  slip_cap : int;  (* honest on-path noise bound, < quarantine_at *)
  off_cap : int;  (* off-path accumulation bound *)
  cls_cap : int;  (* per-class insider/wire accumulation bound *)
}

let default_bounds =
  {
    rate_limit_at = 1;
    quarantine_at = 3;
    expel_at = 5;
    slip_cap = 2;
    off_cap = 5;
    cls_cap = 4;
  }

(* Levels as ranks: 0 Clear, 1 Rate_limited, 2 Quarantined, 3 Expelled. *)

type state = {
  (* V: one on-path class, an off-path accumulator, a challenge flag. *)
  v_c0 : int;
  v_off : int;
  v_level : int;
  v_challenged : bool;
  (* M: two on-path classes. *)
  m_c0 : int;
  m_c1 : int;
  m_level : int;
  (* W: one on-path class (every wire injection is its own evidence). *)
  w_c0 : int;
  w_level : int;
  (* Suspicion replication: the successor's imported level for M and
     the last snapshot shipped (E replays snapshots at will). *)
  replica : int;
  snap : int option;
  (* Non-vacuity witnesses. *)
  clamped : bool;  (* the corroboration gate held a raw quarantine down *)
  attested : bool;  (* a challenge round-trip relieved off-path score *)
  imported : bool;  (* the successor merged at least one snapshot *)
}

let initial =
  {
    v_c0 = 0;
    v_off = 0;
    v_level = 0;
    v_challenged = false;
    m_c0 = 0;
    m_c1 = 0;
    m_level = 0;
    w_c0 = 0;
    w_level = 0;
    replica = 0;
    snap = None;
    clamped = false;
    attested = false;
    imported = false;
  }

(* One byte per field, in declaration order: a fixed-width key, so it
   is prefix-free by construction. Any bounds that let a field leave
   0..255 are refused rather than aliased. *)
let canon q =
  let b = Bytes.create 14 in
  let put i v =
    if v < 0 || v > 255 then
      invalid_arg
        (Printf.sprintf "Sentinel_model.canon: field %d out of range (%d)" i v);
    Bytes.set b i (Char.chr v)
  in
  put 0 q.v_c0;
  put 1 q.v_off;
  put 2 q.v_level;
  put 3 (Bool.to_int q.v_challenged);
  put 4 q.m_c0;
  put 5 q.m_c1;
  put 6 q.m_level;
  put 7 q.w_c0;
  put 8 q.w_level;
  put 9 q.replica;
  put 10 (match q.snap with None -> 0 | Some s -> s + 1);
  put 11 (Bool.to_int q.clamped);
  put 12 (Bool.to_int q.attested);
  put 13 (Bool.to_int q.imported);
  Bytes.unsafe_to_string b

type move =
  | M_slip  (* V's own socket: one unit of honest on-path noise *)
  | M_frame  (* E injects a frame claiming V: V off-path + W on-path *)
  | M_insider0  (* M's socket: on-path evidence, class 0 *)
  | M_insider1  (* M's socket: on-path evidence, class 1 *)
  | M_challenge  (* leader challenges the corroboration-blocked V *)
  | M_attest  (* V answers under its session key; off-path wiped *)
  | M_decay  (* quiet time: every score halves, levels ratchet *)
  | M_ship  (* the sentinel ships a suspicion snapshot *)
  | M_import  (* E delivers some shipped snapshot at the successor *)

let pp_move fmt m =
  Format.pp_print_string fmt
    (match m with
    | M_slip -> "V:honest-slip"
    | M_frame -> "E:frame-V"
    | M_insider0 -> "M:evidence-class0"
    | M_insider1 -> "M:evidence-class1"
    | M_challenge -> "L:challenge-V"
    | M_attest -> "V:attest"
    | M_decay -> "clock:decay"
    | M_ship -> "L:ship-snapshot"
    | M_import -> "E:import-snapshot@successor")

(* The ladder, exactly as the implementation computes it: raw target
   from the total score; a raw quarantine-level target without
   corroboration clamps at Rate_limited; the level only ratchets up. *)
let target b total =
  if total >= b.expel_at then 3
  else if total >= b.quarantine_at then 2
  else if total >= b.rate_limit_at then 1
  else 0

(* A principal's on-path evidence is at most two classes, [c0] and
   [c1]; a one-class principal passes [c1 = 0]. *)
let corroborated b c0 c1 =
  c0 + c1 >= b.quarantine_at || (c0 >= 1 && c1 >= 1)

let gated_target b c0 c1 ~off =
  let raw = target b (c0 + c1 + off) in
  if raw >= 2 && not (corroborated b c0 c1) then (1, raw >= 2) else (raw, false)

let update_v b q =
  let tgt, held = gated_target b q.v_c0 0 ~off:q.v_off in
  { q with v_level = max q.v_level tgt; clamped = q.clamped || held }

let update_m b q =
  let tgt, held = gated_target b q.m_c0 q.m_c1 ~off:0 in
  { q with m_level = max q.m_level tgt; clamped = q.clamped || held }

let update_w b q =
  let tgt, held = gated_target b q.w_c0 0 ~off:0 in
  { q with w_level = max q.w_level tgt; clamped = q.clamped || held }

let challenge_due b q =
  let raw = target b (q.v_c0 + q.v_off) in
  raw >= 2
  && (not (corroborated b q.v_c0 0))
  && (not q.v_challenged)
  && q.v_level < 2

(* Field-by-field equality. The record pattern names every field, so
   adding a field without comparing it here fails the build (warning
   9). *)
let same
    { v_c0; v_off; v_level; v_challenged; m_c0; m_c1; m_level; w_c0;
      w_level; replica; snap; clamped; attested; imported } q =
  v_c0 = q.v_c0 && v_off = q.v_off && v_level = q.v_level
  && Bool.equal v_challenged q.v_challenged
  && m_c0 = q.m_c0 && m_c1 = q.m_c1 && m_level = q.m_level
  && w_c0 = q.w_c0 && w_level = q.w_level && replica = q.replica
  && Option.equal Int.equal snap q.snap
  && Bool.equal clamped q.clamped
  && Bool.equal attested q.attested
  && Bool.equal imported q.imported

let successors b q =
  let moves = ref [] in
  let add m s = if not (same s q) then moves := (m, s) :: !moves in

  (* V's honest noise: bounded, single-class, on-path. *)
  if q.v_c0 < b.slip_cap then
    add M_slip (update_v b { q with v_c0 = q.v_c0 + 1 });

  (* E frames V from the wire — until the wire pseudo-peer is itself
     quarantined, at which point the driver's door drops the
     injection before any evidence is scored. *)
  if q.w_level < 2 && q.v_off < b.off_cap && q.w_c0 < b.cls_cap then
    add M_frame
      (update_w b (update_v b { q with v_off = q.v_off + 1; w_c0 = q.w_c0 + 1 }));

  (* The insider misbehaves over its own socket, two evidence classes. *)
  if q.m_c0 < b.cls_cap then
    add M_insider0 (update_m b { q with m_c0 = q.m_c0 + 1 });
  if q.m_c1 < b.cls_cap then
    add M_insider1 (update_m b { q with m_c1 = q.m_c1 + 1 });

  (* Liveness challenge and the honest member's attestation. Relief
     touches ONLY the off-path slot — V's own slips stay. *)
  if challenge_due b q then add M_challenge { q with v_challenged = true };
  if q.v_challenged then
    add M_attest
      { q with v_challenged = false; v_off = 0; attested = true };

  (* Quiet time: scores halve, levels ratchet in place. *)
  if q.v_c0 + q.v_off + q.m_c0 + q.m_c1 + q.w_c0 > 0 then
    add M_decay
      {
        q with
        v_c0 = q.v_c0 / 2;
        v_off = q.v_off / 2;
        m_c0 = q.m_c0 / 2;
        m_c1 = q.m_c1 / 2;
        w_c0 = q.w_c0 / 2;
      };

  (* Suspicion replication: ship the insider's current level; E may
     deliver any snapshot it holds at the successor whenever it
     likes — the merge must tolerate stale replays. *)
  add M_ship { q with snap = Some q.m_level };
  (match q.snap with
  | Some s ->
      add M_import { q with replica = max q.replica s; imported = true }
  | None -> ());

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
    "%a => V=(c0=%d off=%d lvl=%d chal=%b) M=(c0=%d c1=%d lvl=%d) \
     W=(c0=%d lvl=%d) repl=%d"
    pp_move move q.v_c0 q.v_off q.v_level q.v_challenged q.m_c0 q.m_c1
    q.m_level q.w_c0 q.w_level q.replica

let reports ?(bounds = default_bounds) r =
  let b = bounds in
  (* The tentpole obligation: no schedule of framing, noise, decay and
     challenge traffic quarantines the honest responsive member. *)
  let victim_safe =
    E.state_report r ~step ~name:"honest responsive member never quarantined"
      (fun q -> q.v_level < 2)
  in
  (* The ladder is one-way everywhere — including decay ticks,
     attestation relief and snapshot merges. *)
  let ratchet =
    E.edge_report r ~step ~name:"containment levels never ratchet down"
      (fun q _m q' ->
        q'.v_level >= q.v_level
        && q'.m_level >= q.m_level
        && q'.w_level >= q.w_level
        && q'.replica >= q.replica)
  in
  (* Every quarantine edge is backed by corroborated evidence in the
     post-state — the score that crossed is still on the books. *)
  let corroborated_quarantine =
    E.edge_report r ~step ~name:"quarantine requires corroborated evidence"
      (fun q _m q' ->
        (if q.v_level < 2 && q'.v_level >= 2 then corroborated b q'.v_c0 0
         else true)
        && (if q.m_level < 2 && q'.m_level >= 2 then
              corroborated b q'.m_c0 q'.m_c1
            else true)
        &&
        if q.w_level < 2 && q'.w_level >= 2 then corroborated b q'.w_c0 0
        else true)
  in
  (* A merge never loses an escalation: the successor ends at or above
     both its own prior level and the imported snapshot. *)
  let merge_ratchet =
    E.edge_report r ~step ~name:"merge never loses an escalation" (fun q m q' ->
        match m with
        | M_import ->
            q'.replica >= q.replica
            && (match q.snap with Some s -> q'.replica >= s | None -> true)
        | _ -> true)
  in
  (* Non-vacuity: the attack surface was really exercised — the gate
     clamped a raw quarantine, a challenge round-trip fired, the
     insider and the wire really reach quarantine, and snapshots were
     merged. *)
  let surface =
    let exists p = E.find_state r p <> None in
    {
      Explore.name = "attack surface exercised";
      holds =
        exists (fun q -> q.clamped)
        && exists (fun q -> q.attested)
        && exists (fun q -> q.imported)
        && exists (fun q -> q.m_level >= 2)
        && exists (fun q -> q.w_level >= 2)
        && exists (fun q -> q.replica >= 2);
      checked = state_count r;
      violations = [];
    }
  in
  [ victim_safe; ratchet; corroborated_quarantine; merge_ratchet; surface ]
