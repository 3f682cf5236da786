(** Events of the symbolic model: protocol messages and Oops events.

    A message carries a label, an {e apparent} sender, an intended
    recipient and a content field; none of the header is authenticated.
    [Oops f] models the compromise of [f] (typically an expired session
    key): its content becomes part of the public trace, hence of every
    agent's knowledge — exactly the paper's treatment (§4, "Oops(X) is
    treated like an ordinary message whose content is the field X"). *)

type label =
  (* Improved protocol (§3.2). *)
  | AuthInitReq
  | AuthKeyDist
  | AuthAckKey
  | AdminMsg
  | Ack
  | ReqClose
  (* Legacy protocol (§2.2), used by {!Legacy_model}. *)
  | LReqOpen
  | LAckOpen
  | LConnDenied
  | LAuth1
  | LAuth2
  | LAuth3
  | LNewKey
  | LMemRemoved
  | LReqClose

type t =
  | Msg of {
      label : label;
      sender : Field.agent;
      recipient : Field.agent;
      content : Field.t;
    }
  | Oops of Field.t

val compare : t -> t -> int
(** The order of [Stdlib.compare], computed without it. *)

val equal : t -> t -> bool
val pp_label : Format.formatter -> label -> unit
val pp : Format.formatter -> t -> unit

val content : t -> Field.t
(** The content field ([trace] with underline in the paper). *)

module Set : Stdlib.Set.S with type elt = t

val contents : Set.t -> Field.Set.t
(** All contents of a trace — the paper's [trace(q)] underlined. *)

val encode_set : Buffer.t -> Set.t -> unit
(** Append a prefix-free encoding of a trace, its events in set order:
    two traces have the same encoding iff they hold the same events. *)
