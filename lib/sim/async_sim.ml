open Satg_guard
open Satg_circuit

type outcome =
  | Settles of bool array
  | Non_confluent of bool array list
  | Exceeds_budget

exception Frontier_limit

(* --- the packed-state kernel ------------------------------------------------

   A frontier entry is [w] state words, [w] excitation words and [w]
   sleep words (see [State]).  Invariant: an entry's excitation words
   always equal the excitation of its state words.  Firing gate [g]
   flips [g]'s bit, and only [g] and the gates reading it can change
   excitation ([Circuit.affected g]), so only those are re-evaluated.

   The sleep words hold the entry's sleep set (Godefroid's sleep sets,
   laid out by layer): gates whose firing from this state only leads
   to states some other entry of the same layer produces.  From state
   [s] with sleep set [Z], the fireable gates outside [Z] fire in
   ascending order; child [s + g] gets [Z], plus the gates fired from
   [s] before [g], minus the gates that do not commute with [g]
   ([Circuit.dependent g]).  A child reached from several parents
   keeps the intersection of their masks.  Every layer holds exactly
   the states of the exhaustive step (DESIGN.md section 5); only the
   duplicate firings are gone. *)

(* Per-domain kernel counters, indexed by these. *)
let c_probes = 0 (* successor lookups in the next frontier *)
let c_fresh = 1 (* of which new entries *)
let c_pruned = 2 (* fireable gates skipped as asleep *)

type scratch = {
  cur : State.Set.t;
  next : State.Set.t;
  stables : State.Set.t;
  mutable buf : int array;  (* one entry *)
  mutable fired : int array;
      (* sleep set of the entry being expanded, plus the gates it fired *)
  counts : int array;
}

(* Every domain's counters: the live ones, and in [retired] the totals
   of the domains that have exited. *)
let registry = Mutex.create ()
let live = ref []
let retired = Array.make 3 0

let register counts =
  Mutex.protect registry (fun () -> live := counts :: !live);
  Domain.at_exit (fun () ->
      Mutex.protect registry (fun () ->
          Array.iteri (fun i n -> retired.(i) <- retired.(i) + n) counts;
          live := List.filter (( != ) counts) !live))

(* Frontier sets are reused across layers and calls, one set of
   buffers per domain: [Explicit.build_par] classifies on pool
   workers. *)
let scratch_key =
  Domain.DLS.new_key (fun () ->
      let counts = Array.make 3 0 in
      register counts;
      {
        cur = State.Set.create ~words:1 ();
        next = State.Set.create ~words:1 ();
        stables = State.Set.create ~words:1 ();
        buf = [||];
        fired = [||];
        counts;
      })

type stats = { probes : int; fresh : int; sleep_pruned : int }

let stats () =
  Mutex.protect registry (fun () ->
      let sum i = List.fold_left (fun n c -> n + c.(i)) retired.(i) !live in
      {
        probes = sum c_probes;
        fresh = sum c_fresh;
        sleep_pruned = sum c_pruned;
      })

let reset_stats () =
  Mutex.protect registry (fun () ->
      List.iter (fun c -> Array.fill c 0 3 0) (retired :: !live))

let pp_stats ppf { probes; fresh; sleep_pruned } =
  Format.fprintf ppf
    "kernel stats: %d successor probes, %d fresh, %d sleep-pruned firings \
     (all domains)"
    probes fresh sleep_pruned

let scratch w =
  let sc = Domain.DLS.get scratch_key in
  State.Set.reset sc.cur ~words:w ~payload:(2 * w);
  State.Set.reset sc.next ~words:w ~payload:(2 * w);
  State.Set.reset sc.stables ~words:w;
  if Array.length sc.buf <> 3 * w then begin
    sc.buf <- Array.make (3 * w) 0;
    sc.fired <- Array.make w 0
  end;
  sc

(* [State.word] and [State.mask], local so that they inline: they run
   once per re-evaluated gate, and [State]'s own are calls in builds
   without cross-module inlining. *)
let () = assert (State.bits = 63)
let word i = i / 63
let mask i = 1 lsl (i mod 63)

let set_bit a i b =
  let j = word i and m = mask i in
  a.(j) <- (if b then a.(j) lor m else a.(j) land lnot m)

(* Re-evaluate gate [g]'s excitation bit in the entry at [a.(off ..)]. *)
let excite c a off w g =
  let j = off + word g and m = mask g in
  let excited = Circuit.eval_packed c a off g <> (a.(j) land m <> 0) in
  a.(j + w) <- (if excited then a.(j + w) lor m else a.(j + w) land lnot m)

(* Fill [buf] with state [s], its excitation and an empty sleep set. *)
let load c buf w s =
  Array.fill buf 0 (Array.length buf) 0;
  Array.iteri (fun i b -> if b then set_bit buf i true) s;
  Array.iter (excite c buf 0 w) (Circuit.gates c)

let apply_inputs c buf w v =
  if Array.length v <> Circuit.n_inputs c then
    invalid_arg "Circuit.apply_input_vector: wrong vector length";
  Array.iteri
    (fun k env ->
      set_bit buf env v.(k);
      let aff = Circuit.affected c env in
      for a = 0 to Array.length aff - 1 do
        excite c buf 0 w aff.(a)
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
    { hold_w = word g; hold_m = mask g; hold_from = not v }

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
  let stride = State.Set.stride set in
  let rec entry e =
    e = n || (nothing_fires veto a (e * stride) w 0 && entry (e + 1))
  in
  entry 0

let rec zero_words a off n =
  n = 0 || (Array.unsafe_get a off = 0 && zero_words a (off + 1) (n - 1))

(* [Array.blit] is a C call; frontier entries are a few words. *)
let copy_words (src : int array) soff (dst : int array) doff n =
  for x = 0 to n - 1 do
    Array.unsafe_set dst (doff + x) (Array.unsafe_get src (soff + x))
  done

(* Set bits of an int, all 63 of them. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56 land 0xff

(* Fire gate [g] (bit [low] of word [j]) from the entry at [a.(base ..)]
   into [next].  [buf] holds the entry's state words, [fired] its sleep
   set plus the gates fired from it so far.  The successor is probed
   first; only a fresh one has its excitation computed.  Either way
   its sleep set becomes (or is intersected with) [fired] minus the
   gates that do not commute with [g]. *)
let fire c w sc a base next j low g =
  let buf = sc.buf and fired = sc.fired in
  buf.(j) <- buf.(j) lxor low;
  let n = State.Set.count next in
  let e = State.Set.add_key next buf 0 in
  buf.(j) <- buf.(j) lxor low;
  let t = State.Set.arena next and tb = e * 3 * w in
  let z = tb + (2 * w) in
  if e = n then begin
    sc.counts.(c_fresh) <- sc.counts.(c_fresh) + 1;
    copy_words a (base + w) t (tb + w) w;
    let aff = Circuit.affected c g in
    for x = 0 to Array.length aff - 1 do
      excite c t tb w (Array.unsafe_get aff x)
    done;
    copy_words fired 0 t z w
  end
  else
    for x = 0 to w - 1 do
      Array.unsafe_set t (z + x)
        (Array.unsafe_get t (z + x) land Array.unsafe_get fired x)
    done;
  let dep = Circuit.dependent c g in
  let x = ref 0 in
  while !x < Array.length dep do
    let zw = z + Array.unsafe_get dep !x in
    Array.unsafe_set t zw
      (Array.unsafe_get t zw land lnot (Array.unsafe_get dep (!x + 1)));
    x := !x + 2
  done

(* One layer of R_delta: every fireable gate of every state fires,
   except the asleep ones; states with nothing fireable persist
   (self-loop), states whose fireable gates are all asleep emit
   nothing. *)
let step c veto w sc cur next =
  State.Set.clear next;
  let a = State.Set.arena cur in
  let stride = 3 * w in
  let counts = sc.counts and fired = sc.fired in
  for e = 0 to State.Set.count cur - 1 do
    let base = e * stride in
    copy_words a base sc.buf 0 w;
    copy_words a (base + (2 * w)) fired 0 w;
    let any = ref false in
    for j = 0 to w - 1 do
      let f = fireable veto a base w j in
      if f <> 0 then begin
        any := true;
        let asleep = f land fired.(j) in
        if asleep <> 0 then
          counts.(c_pruned) <- counts.(c_pruned) + popcount asleep;
        let todo = ref (f lxor asleep) in
        while !todo <> 0 do
          let low = !todo land - !todo in
          todo := !todo lxor low;
          counts.(c_probes) <- counts.(c_probes) + 1;
          let g = (j * State.bits) + State.bit_index low in
          fire c w sc a base next j low g;
          fired.(j) <- fired.(j) lor low
        done
      end
    done;
    if not !any then begin
      counts.(c_probes) <- counts.(c_probes) + 1;
      let n = State.Set.count next in
      if State.Set.add_sub next a base = n then
        counts.(c_fresh) <- counts.(c_fresh) + 1
    end
  done

let decode c a off =
  Array.init (Circuit.n_nodes c) (fun i ->
      Array.unsafe_get a (off + word i) land mask i <> 0)

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
      step c veto w sc cur next;
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
        Array.iter (excite c buf 0 w) (Circuit.affected c g);
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
  let stride = 3 * w in
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
        step c no_veto w sc cur next;
        go (i + 1) next cur
      end
    end
    else begin
      step c no_veto w sc cur next;
      go (i + 1) next cur
    end
  in
  ignore (State.Set.add_sub sc.cur sc.buf 0 : int);
  go 0 sc.cur sc.next
