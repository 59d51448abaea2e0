open Satg_guard
open Satg_circuit

type outcome =
  | Settles of bool array
  | Non_confluent of bool array list
  | Exceeds_budget

exception Frontier_limit

(* --- the packed-state kernel ------------------------------------------------

   A frontier entry is [w] state words followed by [w] excitation words
   (see [State]): the bit of every excited gate is set in the second
   half.  Invariant: an entry's excitation words always equal the
   excitation of its state words.  Firing gate [g] flips [g]'s bit, and
   only [g] and the gates reading it can change excitation
   ([Circuit.affected g]), so only those are re-evaluated. *)

type scratch = {
  cur : State.Set.t;
  next : State.Set.t;
  stables : State.Set.t;
  mutable buf : int array;  (* one entry *)
}

(* Frontier sets are reused across layers and calls, one set of
   buffers per domain: [Explicit.build_par] classifies on pool
   workers. *)
let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        cur = State.Set.create ~words:1 ();
        next = State.Set.create ~words:1 ();
        stables = State.Set.create ~words:1 ();
        buf = [||];
      })

let scratch w =
  let sc = Domain.DLS.get scratch_key in
  State.Set.reset sc.cur ~words:w ~payload:w;
  State.Set.reset sc.next ~words:w ~payload:w;
  State.Set.reset sc.stables ~words:w;
  if Array.length sc.buf <> 2 * w then sc.buf <- Array.make (2 * w) 0;
  sc

let set_bit a i b =
  let j = State.word i and m = State.mask i in
  a.(j) <- (if b then a.(j) lor m else a.(j) land lnot m)

let excite c buf w g =
  let j = State.word g and m = State.mask g in
  let excited = Circuit.eval_packed c buf 0 g <> (buf.(j) land m <> 0) in
  buf.(w + j) <-
    (if excited then buf.(w + j) lor m else buf.(w + j) land lnot m)

(* Fill [buf] with state [s] and its excitation. *)
let load c buf w s =
  Array.fill buf 0 (2 * w) 0;
  Array.iteri (fun i b -> if b then set_bit buf i true) s;
  Array.iter (excite c buf w) (Circuit.gates c)


let apply_inputs c buf w v =
  if Array.length v <> Circuit.n_inputs c then
    invalid_arg "Circuit.apply_input_vector: wrong vector length";
  Array.iteri
    (fun k env ->
      set_bit buf env v.(k);
      let aff = Circuit.affected c env in
      for a = 0 to Array.length aff - 1 do
        excite c buf w aff.(a)
      done)
    (Circuit.inputs c)

(* A delay-fault veto: gate [g] never completes a transition to [v].
   The gate is excited towards [v] exactly when its output is [not v],
   so the veto is one masked bit: [(hold_w, hold_m)] is the gate's bit,
   cleared from the fireable set when the state bit equals
   [hold_from]. *)
type veto = { hold_w : int; hold_m : int; hold_from : bool }

let no_veto = { hold_w = -1; hold_m = 0; hold_from = false }

let veto_of = function
  | None -> no_veto
  | Some (g, v) ->
    { hold_w = State.word g; hold_m = State.mask g; hold_from = not v }

let fireable veto a base w j =
  let f = Array.unsafe_get a (base + w + j) in
  if
    j = veto.hold_w
    && (Array.unsafe_get a (base + j) land veto.hold_m <> 0) = veto.hold_from
  then f land lnot veto.hold_m
  else f

let rec nothing_fires veto a base w j =
  j = w || (fireable veto a base w j = 0 && nothing_fires veto a base w (j + 1))

let all_stable veto set w =
  let a = State.Set.arena set and n = State.Set.count set in
  let rec entry e =
    e = n || (nothing_fires veto a (e * 2 * w) w 0 && entry (e + 1))
  in
  entry 0

let rec zero_words a off n =
  n = 0 || (Array.unsafe_get a off = 0 && zero_words a (off + 1) (n - 1))

(* [Array.blit] is a C call; frontier entries are a few words. *)
let copy_words src off dst n =
  for x = 0 to n - 1 do
    Array.unsafe_set dst x (Array.unsafe_get src (off + x))
  done

(* One layer of R_delta: every fireable gate of every state fires;
   states with nothing fireable persist (self-loop). *)
let step c veto w cur next buf =
  State.Set.clear next;
  let a = State.Set.arena cur in
  let stride = 2 * w in
  for e = 0 to State.Set.count cur - 1 do
    let base = e * stride in
    let fired = ref false in
    for j = 0 to w - 1 do
      let f = ref (fireable veto a base w j) in
      while !f <> 0 do
        let low = !f land - !f in
        f := !f lxor low;
        fired := true;
        let g = (j * State.bits) + State.bit_index low in
        copy_words a base buf stride;
        buf.(j) <- buf.(j) lxor low;
        let aff = Circuit.affected c g in
        for x = 0 to Array.length aff - 1 do
          excite c buf w (Array.unsafe_get aff x)
        done;
        ignore (State.Set.add_sub next buf 0 : int)
      done
    done;
    if not !fired then ignore (State.Set.add_sub next a base : int)
  done

let decode c a off =
  Array.init (Circuit.n_nodes c) (fun i ->
      Array.unsafe_get a (off + State.word i) land State.mask i <> 0)

(* Members in lexicographic node order (= [Stdlib.compare] on the
   decoded arrays). *)
let sorted_states c set =
  let a = State.Set.arena set and stride = State.Set.stride set in
  let w = Circuit.words c in
  let idx = Array.init (State.Set.count set) Fun.id in
  Array.sort (fun x y -> State.compare_sub a (x * stride) a (y * stride) w) idx;
  Array.to_list (Array.map (fun e -> decode c a (e * stride)) idx)

(* The frontier after [k] layers (or earlier, once nothing can fire). *)
let frontier ~max_frontier ~veto ~guard c ~k sc w =
  let rec go i cur next =
    let width = State.Set.count cur in
    if width > max_frontier then raise Frontier_limit;
    if i >= k || all_stable veto cur w then cur
    else begin
      Guard.spend_transitions guard width;
      step c veto w cur next sc.buf;
      go (i + 1) next cur
    end
  in
  ignore (State.Set.add_sub sc.cur sc.buf 0 : int);
  go 0 sc.cur sc.next

let states_after ?(max_frontier = max_int) ?hold ?(guard = Guard.none) c ~k s =
  let w = Circuit.words c in
  let sc = scratch w in
  load c sc.buf w s;
  sorted_states c
    (frontier ~max_frontier ~veto:(veto_of hold) ~guard c ~k sc w)

let apply_vector c ~k s v =
  let w = Circuit.words c in
  let sc = scratch w in
  load c sc.buf w s;
  if not (zero_words sc.buf w w) then
    invalid_arg "Async_sim.apply_vector: state not stable";
  apply_inputs c sc.buf w v;
  let final =
    frontier ~max_frontier:max_int ~veto:no_veto ~guard:Guard.none c ~k sc w
  in
  if not (all_stable no_veto final w) then Exceeds_budget
  else
    match sorted_states c final with
    | [ s' ] -> Settles s'
    | [] -> assert false
    | multiple -> Non_confluent multiple

let settle c ~max_steps s =
  let w = Circuit.words c in
  let buf = Array.make (2 * w) 0 in
  load c buf w s;
  let rec lowest j =
    if j = 2 * w then -1 else if buf.(j) <> 0 then j else lowest (j + 1)
  in
  let rec go i =
    match lowest w with
    | -1 -> Some (decode c buf 0)
    | j ->
      if i >= max_steps then None
      else begin
        let low = buf.(j) land -buf.(j) in
        let g = ((j - w) * State.bits) + State.bit_index low in
        buf.(j - w) <- buf.(j - w) lxor low;
        Array.iter (excite c buf w) (Circuit.affected c g);
        go (i + 1)
      end
  in
  go 0

let reachable_stable_states c ~k ~from =
  let n_in = Circuit.n_inputs c in
  let vectors =
    List.init (1 lsl n_in) (fun mask ->
        Array.init n_in (fun i -> mask land (1 lsl i) <> 0))
  in
  let seen = State.Set.create ~words:(Circuit.words c) () in
  let found = ref [] in
  let queue = Queue.create () in
  let push s =
    let n = State.Set.count seen in
    if State.Set.add seen (State.of_bools s) = n then begin
      found := s :: !found;
      Queue.add s queue
    end
  in
  List.iter
    (fun s ->
      if Circuit.is_stable c s then push s
      else
        match settle c ~max_steps:k s with
        | Some s' -> push s'
        | None -> ())
    from;
  while not (Queue.is_empty queue) do
    let s = Queue.take queue in
    List.iter
      (fun v ->
        if v <> Circuit.input_vector_of_state c s then
          match apply_vector c ~k s v with
          | Settles s' -> push s'
          | Non_confluent finals -> List.iter push finals
          | Exceeds_budget -> ())
      vectors
  done;
  List.sort Stdlib.compare !found

type classification =
  | C_settles of bool array
  | C_invalid of bool array list
  | C_capped

(* Order-insensitive fingerprint of a frontier, from the stored entry
   hashes: only a prefilter for the exact cycle check. *)
let fingerprint set =
  let sum = ref 0 and xor = ref 0 in
  for e = 0 to State.Set.count set - 1 do
    let h = State.Set.hash_of set e in
    sum := !sum + h;
    xor := !xor lxor h
  done;
  (State.Set.count set, !sum, !xor)

(* The state words of every entry, [w] apiece. *)
let snapshot set w =
  let a = State.Set.arena set and stride = State.Set.stride set in
  let n = State.Set.count set in
  let keys = Array.make (n * w) 0 in
  for e = 0 to n - 1 do
    Array.blit a (e * stride) keys (e * w) w
  done;
  keys

(* Exact set equality: same size (the fingerprint includes it), and
   every stored member is in the live frontier. *)
let same_members set keys w =
  let rec go e =
    e * w >= Array.length keys
    || (State.Set.mem_sub set keys (e * w) && go (e + 1))
  in
  go 0

let classify_vector ?(max_frontier = max_int) ?(guard = Guard.none) c ~k s v =
  let w = Circuit.words c in
  let sc = scratch w in
  load c sc.buf w s;
  if not (zero_words sc.buf w w) then
    invalid_arg "Async_sim.classify_vector: state not stable";
  apply_inputs c sc.buf w v;
  let stride = 2 * w in
  let harvest cur =
    let a = State.Set.arena cur in
    for e = 0 to State.Set.count cur - 1 do
      if zero_words a ((e * stride) + w) w then
        ignore (State.Set.add_sub sc.stables a (e * stride) : int)
    done
  in
  let stable_list () = sorted_states c sc.stables in
  let seen_frontiers = Hashtbl.create 16 in
  let rec go i cur next =
    let width = State.Set.count cur in
    Guard.spend_transitions guard width;
    harvest cur;
    if State.Set.count sc.stables >= 2 then
      (* Two distinct final stable states are already reachable. *)
      C_invalid (stable_list ())
    else if width > max_frontier then C_capped
    else if all_stable no_veto cur w then
      (* Single stable state (cardinality 1 since stables < 2). *)
      C_settles (decode c (State.Set.arena cur) 0)
    else if i >= k then C_invalid (stable_list ())
    else if width <= 4096 then begin
      (* Cycle detection (cheap only while the frontier is small): a
         repeated frontier that is not all-stable never settles. *)
      let fp = fingerprint cur in
      if
        List.exists
          (fun keys -> same_members cur keys w)
          (Hashtbl.find_all seen_frontiers fp)
      then C_invalid (stable_list ())
      else begin
        Hashtbl.add seen_frontiers fp (snapshot cur w);
        step c no_veto w cur next sc.buf;
        go (i + 1) next cur
      end
    end
    else begin
      step c no_veto w cur next sc.buf;
      go (i + 1) next cur
    end
  in
  ignore (State.Set.add_sub sc.cur sc.buf 0 : int);
  go 0 sc.cur sc.next
