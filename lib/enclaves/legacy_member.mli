(** Legacy-protocol group member (§2.2) — the baseline the paper
    attacks. Its weaknesses are preserved deliberately:

    - The pre-authentication exchange ([ReqOpen] / [AckOpen] /
      [ConnectionDenied]) is plaintext and unauthenticated: a forged
      [ConnectionDenied] aborts a legitimate join (attack {b A1}).
    - [NewKey] messages carry no freshness evidence: a replayed old
      key-distribution message sealed under this member's session key
      is accepted and silently reverts the group key (attack {b A3}).
    - [MemJoined] / [MemRemoved] are sealed only under the shared group
      key, which every member holds, so any insider can forge
      membership events (attack {b A2}).
    - [CloseConnection] and the leader-bound [LegacyReqClose] are
      plaintext, so connections can be torn down by anyone (attack
      {b A4}, the "variation ... used to expel members" gone wrong).

    The state machine: [NotConnected] → [WaitingAckOpen] →
    [WaitingAuth2 N1] → [Connected], with [Denied] as an abort state
    for the pre-auth exchange. *)

type t

type event =
  | Joined of { session_key : Sym_crypto.Key.t }
  | Join_denied  (** Received [ConnectionDenied] — possibly forged. *)
  | Group_key_updated of int  (** New (or replayed!) key, with epoch. *)
  | View_member_added of Types.agent
  | View_member_removed of Types.agent
  | App_received of { author : Types.agent; body : string }
      (** The one record of a delivered application message. *)
  | Left
  | Rejected of { label : Wire.Frame.label option; reason : Types.reject_reason }

val pp_event : Format.formatter -> event -> unit

type state_view =
  | Not_connected
  | Waiting_ack_open
  | Waiting_auth2 of Wire.Nonce.t
  | Connected of Sym_crypto.Key.t
  | Denied

val create :
  self:Types.agent -> leader:Types.agent -> password:string ->
  rng:Prng.Splitmix.t -> t

val self : t -> Types.agent
val state : t -> state_view
val is_connected : t -> bool

val join : t -> Wire.Frame.t list
(** Start the pre-auth exchange ([ReqOpen]). Also restarts from
    [Denied]. *)

val leave : t -> Wire.Frame.t list
(** Send the plaintext [LegacyReqClose]; the member stays connected
    until the leader's [CloseConnection] arrives. *)

val receive : t -> string -> Wire.Frame.t list
val send_app : t -> string -> Wire.Frame.t list

val group_key : t -> Types.group_key option
(** The member's current group key and epoch — watch this revert under
    attack A3. *)

val group_view : t -> Types.agent list
(** Membership belief — watch it corrupt under attack A2. *)

val drain_events : t -> event list
(** Events since the last drain, oldest first. The log grows until the
    caller drains it: {!Driver.Legacy} does not. *)

val session_key : t -> Sym_crypto.Key.t option
