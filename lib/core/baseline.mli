(** Baseline: synchronous test generation for asynchronous circuits in
    the style of Banerjee, Chakradhar and Roy (paper §6.1).

    Feedback loops are cut by virtual flip-flops (state-holding gates
    contribute their own output as a flip-flop), turning the netlist
    into a synchronous FSM: one test cycle = one combinational
    evaluation.  Test generation runs on that model; the generated
    vectors are then {e validated} by unit-delay simulation — which
    detects oscillation but, seeing only one interleaving, cannot
    detect non-confluence.  Finally we score each claimed test against
    the exact unbounded-delay model (our CSSG + ternary machinery) to
    quantify the optimism the paper describes. *)

open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sg

type claim = {
  fault : Fault.t;
  sequence : Testset.sequence option;  (** claimed test, if one was found *)
  survives_validation : bool;
      (** unit-delay replay settles everywhere and shows the fault *)
  truly_detects : bool;
      (** valid CSSG path and conservative ternary detection *)
  aborted : Guard.reason option;
      (** the resource budget ran out while handling this fault *)
}

type result = {
  circuit : Circuit.t;
  claims : claim list;
  cpu_seconds : float;  (** wall-clock seconds ({!Satg_guard.Guard.now}) *)
}

val run :
  ?max_depth:int ->
  ?max_states:int ->
  ?guard:Guard.t ->
  Circuit.t ->
  cssg:Cssg.t ->
  faults:Fault.t list ->
  result
(** [cssg] is the exact graph used only for the final truth scoring.

    [guard] is a budget for the whole baseline run (one transition per
    product-BFS expansion); once it trips, the current and all
    remaining faults are recorded with [aborted = Some _] rather than
    raising. *)

val claimed : result -> int
val validated : result -> int
val truly_detected : result -> int

val aborted : result -> int
(** Claims cut short by the resource budget. *)

val pp_summary : Format.formatter -> result -> unit
