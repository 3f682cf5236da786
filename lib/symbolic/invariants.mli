(** The secrecy results of §5.1 and §5.2, checked exhaustively over an
    explored state space.

    Each check returns a {!report}; [holds = true] means the property
    was verified in {e every} reachable state (or over every
    transition, for per-edge obligations) of the bounded instance. *)

type report = Explore.report = {
  name : string;
  holds : bool;
  checked : int;  (** States or edges examined. *)
  violations : string list;  (** Pretty-printed counterexamples (capped). *)
}

val pp_report : Format.formatter -> report -> unit

(** A check over an explored graph: {!check_result} feeds it every
    state, then every edge, and collects the reports. Checkers are
    single-use — the callbacks accumulate into internal state that
    [finish] reads out (calling [finish] more than once is
    harmless). *)
type checker = {
  on_state : Model.state -> unit;
  on_edge : Model.state -> Model.move -> Model.state -> unit;
  finish : unit -> report list;
}

val combine : checker list -> checker
(** Fan callbacks out to every checker; [finish] concatenates the
    reports in order. *)

val check_result : Explore.result -> checker -> report list
(** Drive a checker over an exploration: all states first, then all
    edges, then [finish]. *)

val one : Explore.result -> checker -> report
(** [check_result] for a checker that makes exactly one report. *)

type failures
(** A checker's counterexamples as it finds them. *)

val failures : unit -> failures

val fail : failures -> (unit -> string) -> unit
(** [fail t render] counts one counterexample; [render] runs only for
    the first five, so later ones cost no formatting. *)

val make_report : string -> int -> failures -> report
(** [make_report name checked t] — holds iff [t] counted none; keeps
    the first five counterexamples in the order they were found. *)

val per_state : (Model.state -> 'a) -> Model.state -> 'a
(** [per_state f] computes [f] once per state for every checker that
    shares it: it remembers the last state it saw, which is enough
    because a {!combine}d checker hands each state to all of its
    checkers in turn. *)

val long_term_key_secrecy : ?config:Model.config -> Explore.result -> report
(** §5.1's conclusion: in every reachable state,
    [P_a ∉ Know(E, q)] — no agent other than [A] and [L] can ever
    access [A]'s long-term key. *)

val session_key_secrecy : ?config:Model.config -> Explore.result -> report
(** §5.2, Proposition 3: [InUse(K_a, q) ∧ K_a ∈ Know(G, q) ⇒ G ∈
    {A, L}] — while a session key is in use the intruder never holds
    it, even though expired session keys are handed over via Oops. *)

val all : ?config:Model.config -> Explore.result -> report list
(** The five §5.1/§5.2 secrecy checks. Two are
    {!long_term_key_secrecy} and {!session_key_secrecy}; the other
    three are checked only here:
    - regularity (§5.1, the Regularity Lemma's premise): no honest
      transition ever places [P_a] inside a message, checked per
      honest edge on the contents the edge adds to the trace;
    - the coideal invariant (§5.2, property (5)): whenever [K_a] is in
      use, [trace(q) ⊆ C({K_a, P_a})] — every content on the wire
      lies in the coideal, i.e. carries no path to the secrets. This
      is the paper's actual inductive invariant, stronger than its
      corollary {!session_key_secrecy};
    - Oops keys are public: once a session closes, its key {e is} in
      the intruder's knowledge — compromise of expired keys is really
      being modelled, so {!session_key_secrecy} is not vacuous. *)
