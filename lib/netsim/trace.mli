(** Network event trace.

    Mirrors the paper's [trace(q)]: the record of everything that has
    happened on the network, visible to every agent (the attacker
    reads it; tests and the runtime property checkers assert over it).
    Payloads are raw frame bytes — the trace is below the crypto
    boundary, so recording them leaks nothing the network would not. *)

type drop_cause =
  | By_adversary  (** The adversary tap returned [Drop]. *)
  | Unregistered  (** No handler registered for the destination. *)
  | By_fault  (** Suppressed by the {!Faultplan} (loss/partition/outage). *)

(** The injection path a delivered frame arrived over — the transport
    provenance the simulated network can vouch for, as opposed to the
    sender name the frame {e claims}. A frame a registered node handed
    to its own network endpoint arrives [Via_socket node]; a frame the
    adversary injected straight onto the wire (no endpoint) arrives
    [Via_wire]. A compromised member's own injections still arrive
    [Via_socket member] — it owns that endpoint — which is exactly the
    distinction the sentinel's evidence attribution keys on. *)
type via = Via_socket of string | Via_wire

type entry =
  | Sent of { time : Vtime.t; src : string; dst : string; payload : string }
      (** An honest node handed a frame to the network. *)
  | Delivered of {
      time : Vtime.t;
      src : string;
      dst : string;
      payload : string;
      via : via;
    }
      (** The network invoked [dst]'s handler; [via] is the transport
          path the frame genuinely arrived over. *)
  | Dropped of {
      time : Vtime.t;
      src : string;
      dst : string;
      payload : string;
      cause : drop_cause;
    }
      (** The frame was suppressed; [cause] attributes the loss. *)
  | Injected of {
      time : Vtime.t;
      dst : string;
      payload : string;
      origin : string option;
    }
      (** The adversary placed a frame of its own making. [origin] is
          the endpoint it was pushed through ([Some member] for a
          compromised insider using its own connection, [None] for a
          raw wire write). *)

type t

val create : unit -> t
val record : t -> entry -> unit
val entries : t -> entry list
(** Oldest first. *)

val length : t -> int
val payloads : t -> string list
(** Every payload that appeared on the wire, oldest first — the
    attacker's raw observation set. *)

val pp_entry : Format.formatter -> entry -> unit
