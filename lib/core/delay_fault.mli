(** Gross gate-delay faults — the fault-model extension the paper lists
    as future work (§7: "covering a wider spectrum of fault models
    (e.g. delay faults)").

    A gross delay fault makes one transition direction of one gate
    slower than the test cycle: whenever the gate is excited towards
    the slow value, it simply fails to fire within the cycle (the
    standard gross-delay abstraction; the gate may still switch the
    other way).  The faulty machine is explored exactly, like the
    stuck-at machinery: the set of possible faulty states is tracked,
    and a test is conclusive only when every member disagrees with the
    good machine on the observed outputs.

    Because the CSSG already guarantees that every applied vector
    settles in the {e good} machine within [k] firings, a detected
    delay fault is observable by the same synchronous tester at the
    same cycle time. *)

open Satg_guard
open Satg_circuit
open Satg_sg

type t = {
  gate : int;  (** gate node id *)
  slow_to : bool;  (** [true] = slow-to-rise, [false] = slow-to-fall *)
}

val universe : Circuit.t -> t list
(** Both directions for every gate (buffers included: slow input
    wires). *)

val to_string : Circuit.t -> t -> string
(** e.g. ["y/slow-rise"]. *)

val find_test :
  ?max_depth:int ->
  ?max_states:int ->
  ?max_set:int ->
  ?guard:Guard.t ->
  Cssg.t ->
  t ->
  Testset.sequence option
(** Breadth-first search over the product of the good CSSG and the
    exact set of delayed-machine states; the same bounds as
    {!Three_phase.config}.  [guard] is charged one transition per edge
    expansion and raises {!Guard.Exhausted} when spent. *)

val check : Cssg.t -> t -> Testset.sequence -> bool
(** Replay a sequence against the delayed machine (exact sets). *)

type status =
  | Found of Testset.sequence
  | Not_found
  | Aborted of Guard.reason
      (** the run-wide budget ran out at or before this fault *)

type result = {
  circuit : Circuit.t;
  outcomes : (t * status) list;
  cpu_seconds : float;  (** wall-clock seconds ({!Satg_guard.Guard.now}) *)
}

val run : ?max_depth:int -> ?max_states:int -> ?guard:Guard.t -> Cssg.t -> result
(** [guard] is a budget for the whole sweep; faults reached after it
    trips are recorded as {!Aborted} rather than raising. *)

val detected : result -> int

val aborted : result -> int
(** Outcomes cut short by the resource budget. *)

val total : result -> int
val pp_summary : Format.formatter -> result -> unit
