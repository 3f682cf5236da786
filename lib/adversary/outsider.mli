(** Wire-level framing actor for {!Enclaves.Driver.Improved}
    clusters.

    The counterpart of {!Insider} at the opposite end of the privilege
    spectrum: a Dolev-Yao wire attacker that holds {e nothing} — no
    directory entry, no password, no key material, no network
    endpoint. It can only capture honest frames off the wire and
    re-inject them, or fabricate junk, and it puts a chosen {e victim}'s
    name on everything. Its injections arrive [Via_wire] (no [~origin]
    is passed to {!Netsim.Network.inject}), so the transport vouches
    for no socket — the signal the sentinel's injection-path
    attribution discounts.

    The campaign goal is {e framing}, not entry: under a
    claimed-sender evidence scorer, the replay arm's genuinely-MACed
    victim frames and the flood arm's junk under the victim's name
    would quarantine an honest member. The framing arms + this actor
    exist to pin that the attributing sentinel does not.

    Everything is seeded: crafting randomness is a private split of
    the simulation stream, and {!launch} schedules bursts at exactly
    the times the intruder plan dictates. *)

type t

val create :
  driver:Enclaves.Driver.Improved.t ->
  victim:Enclaves.Types.agent ->
  unit ->
  t
(** An outsider bound to one cluster, framing [victim] — normally an
    honest directory member. *)

val counters : t -> (string * int) list
(** Frames actually injected, per arm (see
    {!Netsim.Intruder.counters_named}). *)

val launch : t -> Netsim.Intruder.campaign -> int
(** Schedule the campaign's whole seeded plan ({!Netsim.Intruder.plan})
    as simulator events; returns the number of scheduled bursts. An
    insider arm's first burst raises [Invalid_argument]: those arms
    belong to {!Insider}. *)
