(** Gate-level asynchronous circuit netlists.

    A circuit is a set of {e nodes}.  Each node holds one bit of circuit
    state:

    - an {e environment node} carries the value driven by the tester on
      a primary input;
    - a {e gate node} carries a gate output.

    Following the paper (§3), every primary input is modelled as a
    {!Gatefunc.Buf} gate fed by its environment node, so input wires
    have delays like any other gate.  A full circuit state is a
    [bool array] indexed by node id, covering environment values and
    all gate outputs. *)

open Satg_logic

type node =
  | Env  (** environment side of a primary input *)
  | Gate of {
      func : Gatefunc.t;
      fanin : int array;  (** node ids, in function-argument order *)
    }

type t

(** {1 Construction} *)

module Builder : sig
  type circuit := t
  type t

  val create : string -> t

  val add_input : t -> string -> int
  (** Declare a primary input; creates the environment node and its
      delay buffer, and returns the {e buffer output} node id (the
      signal the rest of the netlist should read). *)

  val add_gate : t -> name:string -> Gatefunc.t -> int list -> int
  (** Add a gate reading the given nodes; returns its output node id.
      Forward references are allowed via {!declare_gate}. *)

  val declare_gate : t -> name:string -> int
  (** Reserve a gate node (for feedback loops); define it later with
      {!define_gate}. *)

  val define_gate : t -> int -> Gatefunc.t -> int list -> unit

  val mark_output : t -> int -> unit
  (** Mark a node as a primary output observed by the tester. *)

  val finalize : t -> circuit
  (** @raise Invalid_argument on arity errors, undefined gates or
      dangling node references. *)
end

val with_initial : t -> bool array -> t
(** Attach a reset state (indexed by node id).
    @raise Invalid_argument on wrong length or if some gate is not
    stable in it. *)

(** {1 Accessors} *)

val name : t -> string
val n_nodes : t -> int
val node : t -> int -> node
val node_name : t -> int -> string

val find_node : t -> string -> int option
(** Look a node up by name.  For a primary input [x] this returns the
    buffer output; the environment node is named ["x$env"]. *)

val inputs : t -> int array
(** Environment node ids, in declaration order. *)

val buffer_of_input : t -> int -> int
(** [buffer_of_input c k] is the buffer gate fed by the [k]-th input. *)

val input_names : t -> string array
val outputs : t -> int array
val gates : t -> int array
(** All gate node ids in creation order. *)

val n_inputs : t -> int
val n_gates : t -> int
val initial : t -> bool array option
val fanins : t -> int -> int array
val func : t -> int -> Gatefunc.t
val fanouts : t -> int -> int list
(** Gate nodes reading the given node. *)

val is_env : t -> int -> bool

(** {1 Semantics} *)

val eval_gate : t -> bool array -> int -> bool
(** Instantaneous function value of a gate in a state. *)

val eval_gate_ternary : t -> Ternary.t array -> int -> Ternary.t

val gate_excited : t -> bool array -> int -> bool
(** Output differs from function value. *)

val excited_gates : t -> bool array -> int list
val is_stable : t -> bool array -> bool

val fire : t -> bool array -> int -> bool array
(** New state with the given (excited or not) gate output set to its
    function value; the input state is not mutated. *)

val apply_input_vector : t -> bool array -> bool array -> bool array
(** [apply_input_vector c s v] returns [s] with the environment nodes
    overwritten by [v] (length {!n_inputs}). *)

val input_vector_of_state : t -> bool array -> bool array
val output_values : t -> bool array -> bool array

(** {1 Packed states}

    The allocation-free side of the semantics, over {!State} words.
    Every circuit carries a compiled gate program (built eagerly by
    every constructor and transformation): each gate is a handful of
    masks over the state words its fanins live in; the cubes of a
    {!Gatefunc.Sop} gate become care/value masks. *)

val words : t -> int
(** [State.words (n_nodes c)]. *)

val eval_packed : t -> int array -> int -> int -> bool
(** [eval_packed c a off g] is {!eval_gate} of gate [g] in the packed
    state stored at [a.(off ..)].  Allocates nothing. *)

val affected : t -> int -> int array
(** Gates whose excitation can change when the given node changes: the
    node itself if it is a gate, and the gates reading it.  Ascending,
    without duplicates. *)

val dependent : t -> int -> int array
(** The gates whose firing may not commute with the given gate's: the
    gate itself, the gates reading it and the gates it reads.  Any
    other excited gate stays excited when this one fires and reaches
    the same state in either order.  Flattened (word, bits) pairs over
    {!State} words, one pair per word holding such a gate; empty for an
    environment node. *)

val state_to_string : t -> bool array -> string
(** One character per node, ['0'] / ['1'], in node-id order. *)

(** {1 Transformation (fault injection etc.)} *)

val add_const_node : t -> bool -> t * int
(** Append a constant gate; returns the new circuit and the node id.
    The initial state, if any, is extended with the constant value. *)

val retarget_pin : t -> gate:int -> pin:int -> int -> t
(** Redirect one fanin pin of a gate to another node. *)

val replace_func : t -> gate:int -> Gatefunc.t -> t
(** Swap a gate's function (arity must match the existing fanin). *)

(** {1 Misc} *)

val validate : t -> (unit, string) result
val pp_stats : Format.formatter -> t -> unit

val without_initial : t -> t
(** Drop the reset state (fault injection invalidates it: the faulty
    circuit need not be stable in the good circuit's reset state). *)

val with_extra_outputs : t -> int list -> t
(** Mark additional nodes as primary outputs (test observation points).
    Duplicates are ignored.
    @raise Invalid_argument on environment nodes or bad ids. *)
