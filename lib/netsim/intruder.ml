type arm =
  | Preauth_flood
  | Handshake_storm
  | Forge_burst
  | Replay_burst
  | Frame_replay
  | Frame_flood

let arm_name = function
  | Preauth_flood -> "preauth-flood"
  | Handshake_storm -> "handshake-storm"
  | Forge_burst -> "forge-burst"
  | Replay_burst -> "replay-burst"
  | Frame_replay -> "frame-replay"
  | Frame_flood -> "frame-flood"

type campaign = {
  arm : arm;
  start : Vtime.t;
  stop : Vtime.t;
  period : Vtime.t;
  burst : int;
}

let campaign ~arm ~start ~stop ~period ~burst () =
  if Vtime.(stop < start) then invalid_arg "Intruder.campaign: stop < start";
  if Vtime.(period <= Vtime.zero) then
    invalid_arg "Intruder.campaign: period must be positive";
  if burst <= 0 then invalid_arg "Intruder.campaign: burst must be positive";
  { arm; start; stop; period; burst }

type counters = {
  mutable flood_frames : int;
  mutable storm_frames : int;
  mutable forged_frames : int;
  mutable replayed_frames : int;
  mutable framed_replays : int;
  mutable framed_floods : int;
}

let fresh_counters () =
  {
    flood_frames = 0;
    storm_frames = 0;
    forged_frames = 0;
    replayed_frames = 0;
    framed_replays = 0;
    framed_floods = 0;
  }

let counters_named c =
  [
    ("flood_frames", c.flood_frames);
    ("storm_frames", c.storm_frames);
    ("forged_frames", c.forged_frames);
    ("replayed_frames", c.replayed_frames);
    ("framed_replays", c.framed_replays);
    ("framed_floods", c.framed_floods);
  ]

let record c arm n =
  match arm with
  | Preauth_flood -> c.flood_frames <- c.flood_frames + n
  | Handshake_storm -> c.storm_frames <- c.storm_frames + n
  | Forge_burst -> c.forged_frames <- c.forged_frames + n
  | Replay_burst -> c.replayed_frames <- c.replayed_frames + n
  | Frame_replay -> c.framed_replays <- c.framed_replays + n
  | Frame_flood -> c.framed_floods <- c.framed_floods + n

type t = { rng : Prng.Splitmix.t; counters : counters }

let create ~rng () =
  { rng = Prng.Splitmix.split rng; counters = fresh_counters () }

let counters t = t.counters

(* Each tick of a plan is displaced by up to this fraction of the
   period. *)
let jitter = 0.25

(* The campaign's firing plan, materialised up front: one (time, burst)
   pair per period tick between [start] and [stop], each tick displaced
   by a seeded jitter fraction of the period. Consuming the plan
   mutates only this intruder's private split stream, so two intruders
   built from the same root seed produce identical plans — the property
   the replay tests pin. *)
let plan t c =
  let period_f = Int64.to_float c.period in
  let rec ticks acc at =
    if Vtime.(c.stop < at) then List.rev acc
    else
      let f = (Prng.Splitmix.next_float t.rng *. 2.0) -. 1.0 in
      let displaced = Int64.add at (Int64.of_float (period_f *. jitter *. f)) in
      let displaced = if Vtime.(displaced < c.start) then c.start else displaced in
      ticks ((displaced, c.burst) :: acc) (Vtime.add at c.period)
  in
  ticks [] c.start
