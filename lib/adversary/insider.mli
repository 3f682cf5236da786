(** Compromised-insider actor for {!Enclaves.Driver.Improved}
    clusters.

    {!Netsim.Intruder} owns the deterministic campaign schedule; this
    module owns the key material and protocol knowledge needed to
    craft the actual hostile frames. The insider is a genuine
    directory member — its password is real, and {!harvest} pockets
    its live session key before the group rotates past it — so the
    A1/A2/A3 arms model abuse with legitimate credentials, the
    sentinel's hardest case.

    Everything is seeded: the actor's crafting randomness is a private
    split of the simulation stream, and {!launch} schedules bursts at
    exactly the times the intruder plan dictates, so a campaign
    replays tick-for-tick from the cluster seed. *)

type t

val create :
  driver:Enclaves.Driver.Improved.t ->
  insider:Enclaves.Types.agent ->
  password:string ->
  unit ->
  t
(** An insider actor bound to one cluster. [insider]/[password] should
    name a real directory entry — the storm arm runs genuine
    handshakes under it. *)

val counters : t -> (string * int) list
(** Frames actually injected, per arm (see
    {!Netsim.Intruder.counters_named}). *)

val harvest : t -> bool
(** Pocket the insider's current session key for the forge arm; [false]
    if it holds none. Call before a rekey or leave retires it. *)

val retired_keys : t -> Sym_crypto.Key.t list

val launch : t -> Netsim.Intruder.campaign -> int
(** Schedule the campaign's whole seeded plan ({!Netsim.Intruder.plan})
    as simulator events; returns the number of scheduled bursts. A
    framing arm's first burst raises [Invalid_argument]: those arms
    belong to {!Outsider}. *)
