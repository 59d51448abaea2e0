(** Exact exploration of a circuit under the unbounded gate-delay model.

    From a stable state and a new input vector, the circuit evolves by
    firing one excited gate at a time ([R_delta] in the paper); all
    interleavings are explored.  This is the reference semantics the
    CSSG is built from, and also the oracle the ternary simulator is
    tested against.

    One packed-state kernel implements it.  States are {!State} words;
    each layer's frontier is a {!State.Set} whose entries carry the
    excitation mask of their state, so firing gate [g] re-evaluates
    only [g] and the gates reading it ({!Circuit.affected}), never the
    whole netlist.  Entries also carry a sleep mask: gates whose firing
    from that state would only reproduce a successor that another
    entry of the layer already produces, because the two firings
    commute ({!Circuit.dependent}).  Asleep gates are not fired, and a
    successor is looked up before its excitation is computed.  Each
    layer still holds exactly the states of the exhaustive step.  The
    frontier sets are per-domain scratch reused across layers and
    calls (safe on {!Satg_pool} workers).  Every function below
    charges its guard one transition per frontier state per layer and
    returns states in lexicographic node order. *)

open Satg_guard
open Satg_circuit

type outcome =
  | Settles of bool array
      (** every interleaving reaches this unique stable state within
          the budget *)
  | Non_confluent of bool array list
      (** at least two distinct stable results are reachable at the end
          of the test cycle (sorted, for determinism) *)
  | Exceeds_budget
      (** some interleaving is still unstable after [k] transitions
          (oscillation, or a settling chain longer than the test
          cycle) *)

exception Frontier_limit
(** Raised by {!states_after} when a layer exceeds [max_frontier]. *)

val states_after :
  ?max_frontier:int ->
  ?hold:int * bool ->
  ?guard:Guard.t ->
  Circuit.t ->
  k:int ->
  bool array ->
  bool array list
(** [states_after c ~k s] is the set of states reachable from [s] in
    {e exactly} [k] firings, where stable states self-loop (paper's
    [TCR_k] frontier).  Sorted lexicographically.

    [hold = (g, v)] vetoes every transition of gate [g] to value [v]
    (a gross delay fault: the slow gate never completes it within the
    cycle); a state whose every excited gate is vetoed behaves as
    stable.

    [guard] is charged one transition per frontier state per layer.
    @raise Frontier_limit when some layer grows beyond [max_frontier]
    (default: unlimited).
    @raise Satg_guard.Guard.Exhausted when [guard] trips. *)

val apply_vector : Circuit.t -> k:int -> bool array -> bool array -> outcome
(** [apply_vector c ~k s v] applies input vector [v] to the stable
    state [s] and classifies the outcome after at most [k] firings.
    @raise Invalid_argument if [s] is not stable. *)

val settle : Circuit.t -> max_steps:int -> bool array -> bool array option
(** Fire excited gates in a fixed (lowest-id-first) order until stable;
    [None] if the budget runs out.  One arbitrary interleaving — used
    to compute reset states, not for validity analysis. *)

val reachable_stable_states :
  Circuit.t -> k:int -> from:bool array list -> bool array list
(** All stable states reachable in test mode when {e every} input
    vector (valid or not) may be applied; the union of all settling
    results.  No engine calls it: it is the exhaustive sweep the tests
    and the CSSG walkthrough example compare a CSSG against.  Bounded
    exploration: states are accumulated to a fixed point. *)

type classification =
  | C_settles of bool array  (** unique stable outcome within budget *)
  | C_invalid of bool array list
      (** non-confluent, oscillating or over budget; carries the stable
          states observed along the way (TCSG node harvest) *)
  | C_capped  (** frontier limit hit before a verdict *)

val classify_vector :
  ?max_frontier:int ->
  ?guard:Guard.t ->
  Circuit.t ->
  k:int ->
  bool array ->
  bool array ->
  classification
(** [classify_vector c ~k s v] decides the CSSG validity of applying
    [v] to the stable state [s], with early exits: a second distinct
    stable state or a repeated non-stable frontier ends the analysis
    immediately.  Agrees with {!apply_vector} wherever both give a
    verdict.  [guard] is charged like in {!states_after}.
    @raise Invalid_argument if [s] is not stable.
    @raise Satg_guard.Guard.Exhausted when [guard] trips. *)

(** {1 Kernel counters}

    Work done by the layer step, counted per domain and summed over
    every domain that has run the kernel in this process (pool workers
    included, also after they exit). *)

type stats = {
  probes : int;  (** successor lookups in a next frontier *)
  fresh : int;  (** lookups that added a new entry *)
  sleep_pruned : int;  (** fireable gates not fired because asleep *)
}

val stats : unit -> stats

val reset_stats : unit -> unit
(** Zero every domain's counters.  Meant for when no kernel call is
    running. *)

val pp_stats : Format.formatter -> stats -> unit
