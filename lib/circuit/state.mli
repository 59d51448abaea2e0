(** Packed circuit states.

    A state of an [n]-node circuit is packed into [words n] native
    ints, 63 node bits per word: node [i] is bit [i mod 63] of word
    [i / 63], and unused high bits are 0.  {!compare_sub} orders packed
    states exactly as [Stdlib.compare] orders the corresponding
    [bool array]s (node 0 most significant), so results sorted on
    packed keys keep the lexicographic node order.

    {!Set} is an open-addressing hash set over a flat int arena: each
    entry is a fixed-width key optionally followed by payload words
    (the unbounded-delay kernel keeps each frontier state's excitation
    mask there).  Entry indices are dense and stable, so a set doubles
    as an intern table, and {!Set.clear} costs the number of entries,
    not the capacity — a set is meant to be reused. *)

type t = int array

val bits : int
(** Node bits per word: 63. *)

val words : int -> int
(** Words per state for a node count (at least 1). *)

val word : int -> int
(** Word holding a node's bit. *)

val mask : int -> int
(** A node's bit within its word. *)

val of_bools : bool array -> t

val compare_sub : int array -> int -> int array -> int -> int -> int
(** [compare_sub a ao b bo w] compares the [w]-word states at [a.(ao)]
    and [b.(bo)] in lexicographic node order (see above). *)

val bit_index : int -> int
(** Position (0–62) of the only set bit of a power of two. *)

val set_key : bool array list -> string
(** Canonical key of a set of states: insensitive to list order, equal
    for equal duplicate-free lists.  Compact (8 bytes per 63 nodes
    per state) and fully hashed by [Hashtbl.hash]. *)

module Tbl : Hashtbl.S with type key = t

val dedup : bool array list -> bool array list
(** Drop repeated states, keeping first occurrences in order. *)

module Set : sig
  type state := t
  type t

  val create : words:int -> unit -> t
  (** Entries of [words] key words, no payload. *)

  val reset : ?payload:int -> t -> words:int -> unit
  (** Empty the set and change its entry layout to [words] key words
      and [payload] (default 0) payload words, keeping capacity. *)

  val clear : t -> unit
  val count : t -> int

  val add : t -> state -> int
  (** Entry index of the key; the key was fresh iff the index equals
      {!count} before the call.  Copies key and payload words. *)

  val add_sub : t -> int array -> int -> int
  (** {!add} reading the entry from [src.(off ..)]. *)

  val find : t -> state -> int
  (** Entry index, or [-1]. *)

  val mem_sub : t -> int array -> int -> bool
  (** Whether the key at [src.(off ..)] is present. *)

  val arena : t -> int array
  (** Backing store: entry [e] starts at [e * stride].  Valid until the
      next {!add}. *)

  val stride : t -> int

  val hash_of : t -> int -> int
  (** Stored hash of an entry's key. *)
end
