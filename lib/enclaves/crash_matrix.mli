(** ALICE-style crash-consistency matrices for the durable logs.

    Each matrix runs a deterministic workload against a
    {!Store.Crashpoint} recorder, enumerates {e every} disk image a
    crash could leave behind (durable/volatile views at each operation
    boundary plus torn-write prefixes), and feeds each image through
    {!check}, the one loop all three share. It asserts, on every image:
    - {b totality} — replay and recovery never raise, and recovery
      lands on the replayed fold;

    at every acknowledged checkpoint:
    - {b durability} — once a mutation returns, the durable image is
      exactly the acknowledged one and replays [Clean] to the
      acknowledged state;

    and across boundaries in time order:
    - a {b floor} that never moves backward.

    Each matrix adds its log's own per-image invariants. [make
    crash-matrix] runs all three via the CLI and fails CI on any
    violation. *)

type violation = {
  image : string;  (** crash-point label, e.g. ["boundary 12: durable"] *)
  invariant : string;  (** which invariant broke *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type report = {
  ops : int;  (** backend operations the workload performed *)
  boundaries : int;  (** crash boundaries enumerated (ops + 1) *)
  images : int;  (** disk images checked *)
  unique_images : int;  (** distinct disk states among them *)
  clean : int;  (** images whose journal replayed [Clean] *)
  damaged : int;  (** images recovered as a valid strict prefix *)
  checkpoints : int;  (** durability checkpoints verified *)
  violations : violation list;  (** empty iff the matrix passed *)
}

val pp_report : Format.formatter -> report -> unit

type 'state checkpoint = {
  boundary : int;  (** ops performed when the mutation returned *)
  bytes : string;  (** the image the log acknowledged *)
  state : 'state option;  (** its state, when the harness can see it *)
}

val check :
  (module Store.Log.S
     with type t = 't
      and type record = 'r
      and type state = 's) ->
  torn:bool ->
  file:string ->
  floor:string * ('s -> int) ->
  image:('r list -> 's -> 't -> (string * string) list) ->
  Store.Crashpoint.op list ->
  's checkpoint list ->
  report
(** [check (module L) ~torn ~file ~floor ~image ops checkpoints]
    enumerates every crash image of [ops] ({!Store.Crashpoint.enumerate},
    with torn variants when [torn]) and checks the log in [file]: replay
    and
    {!Store.Log.S.recover} are total (invariants ["replay-total"],
    ["recover-total"]); each checkpoint is durable (["durability"]);
    and [floor = (invariant, f)] names a value of the state that must
    not decrease across boundaries. [image records state recovered]
    returns extra [(invariant, detail)] violations for one image. *)

val run :
  ?members:int ->
  ?appends:int ->
  ?compact_every:int ->
  ?seed:int64 ->
  ?torn:bool ->
  unit ->
  report
(** The journal matrix: establishments, closes (one of them followed
    by a re-establishment), epoch bumps and several compactions. Per
    image it adds {b non-resurrection} (a session whose last surviving
    record is a close never reappears), {b epoch monotonicity} (the
    recovered [next_epoch] clears every journalled epoch, and is the
    floor), and a {!Leader.recover} that challenges exactly the
    journalled sessions. Defaults: 4 members, 24 extra epoch bumps,
    compaction every 8 records, seed 11, torn-write variants on.
    Deterministic for a given argument vector. *)

val run_queue :
  ?compact_every:int ->
  ?seed:int64 ->
  ?torn:bool ->
  unit ->
  report
(** The same matrix over a store-and-forward delivery queue
    ({!Store.Queue}): 18 pushes across several epochs, a mid-stream
    cumulative ack, a policy drop, and forced compactions past the ack
    floor. Beyond replay/recover totality, asserts the two
    delivery-specific invariants — {b no duplicate-after-replay} (no
    crash image recovers a pending set with a repeated, misordered or
    below-floor delivery seq) and {b no acknowledged-then-lost} (at
    every returned mutation the durable image replays [Clean] to
    exactly the acknowledged state) — plus ack-floor monotonicity
    across boundaries in time order. Defaults: compaction every 6
    records, seed 12, torn variants on. *)

val run_degraded :
  ?compact_every:int ->
  ?seed:int64 ->
  ?torn:bool ->
  unit ->
  report
(** The queue matrix composed with the resource-fault layer: the
    20-push workload crosses an ENOSPC window mid-stream, so the byte
    budgets shed records, the refused mirror is disarmed, and the re-arm
    {!Delivery.flush} republishes the image once space returns — and
    {e every} crash image of that episode is enumerated and replayed.
    Beyond the {!run_queue} invariants (totality, no
    duplicate-after-replay, floor monotonicity, durability at every
    armed checkpoint), asserts {b no shed-seq resurrection}: once the
    re-arm flush has returned, the durable image replays [Clean] to
    exactly the live state, so no record shed during the episode can
    reappear from any later crash. Defaults: compaction every 64
    records, seed 13, torn variants on. *)
