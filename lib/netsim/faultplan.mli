(** Deterministic fault injection for the simulated network.

    A fault plan describes {e misfortune} — loss, corruption,
    duplication, latency spikes, timed bidirectional partitions, and
    node outages — as opposed to the {!Network.adversary} tap, which
    describes {e malice}. The two compose: the adversary inspects each
    frame first, then the fault plan is applied to whatever the
    adversary lets through.

    All random choices are drawn from a {!Prng.Splitmix} stream split
    off the network's seeded generator, so a chaos run is a pure
    function of (seed, plan): every replay is bit-for-bit identical.
    The plan itself is immutable, pure data; the mutable pieces
    (generator, {!counters}) are threaded in by {!Network}. *)

type link = {
  loss : float;  (** P(frame silently dropped). *)
  corrupt : float;  (** P(one random bit flipped). *)
  duplicate : float;  (** P(a second copy is delivered). *)
  spike_prob : float;  (** P(latency spike). *)
  spike : Vtime.t;  (** Extra latency when a spike hits. *)
}

val lossy_link :
  ?corrupt:float ->
  ?duplicate:float ->
  ?spike_prob:float ->
  ?spike:Vtime.t ->
  float ->
  link
(** [lossy_link p] drops each frame with probability [p]; optional
    corruption/duplication/spike knobs (spike defaults to 50 ms).
    @raise Invalid_argument if any probability is outside [0, 1]. *)

type partition = {
  west : string list;
  east : string list;
  from_ : Vtime.t;
  heal : Vtime.t;
}
(** A bidirectional cut: while [from_ <= now < heal] no frame crosses
    between a [west] node and an [east] node (either direction).
    Traffic within each side is unaffected. *)

type outage = { node : string; down : Vtime.t; up : Vtime.t option }
(** A crash/restart schedule: while down, the node neither sends nor
    receives ([up = None] means it never restarts). The node's
    automaton state is untouched — an outage models the {e network
    presence} of a fail-stopped process; protocol-level amnesia is the
    scenario's business. *)

type t = {
  default_link : link;
  links : ((string * string) * link) list;
      (** Directed per-(src, dst) overrides. *)
  partitions : partition list;
  outages : outage list;
}

val none : t

val make :
  ?default_link:link ->
  ?links:((string * string) * link) list ->
  ?partitions:partition list ->
  ?outages:outage list ->
  unit ->
  t

val uniform_loss : float -> t
(** Every link drops with the given probability. *)

val partitioned : t -> now:Vtime.t -> src:string -> dst:string -> bool
val node_down : t -> now:Vtime.t -> string -> bool

(** Mutable tally of injected faults, one per network. *)
type counters = {
  mutable lost : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable spiked : int;
  mutable cut : int;  (** Dropped by an active partition. *)
  mutable down : int;  (** Dropped because an endpoint was down. *)
}

val fresh_counters : unit -> counters
val total_dropped : counters -> int
val pp_counters : Format.formatter -> counters -> unit

type verdict =
  | Fault_drop of [ `Loss | `Partition | `Outage ]
  | Fault_pass of { payload : string; extra : Vtime.t; copies : int }

val apply :
  t ->
  rng:Prng.Splitmix.t ->
  counters:counters ->
  now:Vtime.t ->
  src:string ->
  dst:string ->
  payload:string ->
  verdict
(** Decide one frame's fate and update [counters]. Partition and
    outage checks are deterministic in [now]; loss, corruption,
    duplication and spikes draw from [rng]. *)
