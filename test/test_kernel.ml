(* Differential tests of the packed-state unbounded-delay kernel
   ([Async_sim] over [State] and the compiled gate program) against the
   naive list-based reference in [Ref_async].  Results must be equal
   list for list (same order), and so must the guard transitions spent,
   the frontier-limit trips and the classification verdicts. *)

open Satg_logic
open Satg_guard
open Satg_circuit
open Satg_sim

(* --- random netlists: every gate function, feedback, hazards ------------ *)

type gate_spec = {
  kind : int;  (* index into [kinds] *)
  picks : int list;  (* raw fanin choices, resolved mod the node count *)
  cubes : Cube.lit list list;  (* SOP cubes, one literal per pick *)
  const : bool;
}

type spec = { n_inputs : int; gates : gate_spec list }

(* [Const] and [Sop] are placeholders: [build] fills in the value and
   the cover. *)
let kinds =
  Gatefunc.
    [|
      Buf; Not; And; Or; Nand; Nor; Xor; Xnor; Mux; Celem; Const false;
      Sop (Cover.empty 1);
    |]

(* [max_fanin] caps the variable arities (a MUX always reads 3). *)
let gen_gate ~max_fanin =
  let open QCheck.Gen in
  let* kind = int_bound (Array.length kinds - 1) in
  let* n_picks =
    match kinds.(kind) with
    | Buf | Not -> return 1
    | Mux -> return 3
    | Celem -> int_range 2 (max 2 (min 3 max_fanin))
    | Const _ -> return 0
    | Sop _ -> int_range 1 (min 3 max_fanin)
    | And | Or | Nand | Nor | Xor | Xnor -> int_range 1 (min 4 max_fanin)
  in
  let* picks = list_size (return n_picks) (int_bound 1000) in
  let* cubes =
    list_size (int_range 0 3)
      (list_size (return n_picks) (oneofl Cube.[ T; F; D ]))
  in
  let* const = bool in
  return { kind; picks; cubes; const }

let gen_spec =
  let open QCheck.Gen in
  let* n_inputs = int_range 1 3 in
  let* gates = list_size (int_range 1 8) (gen_gate ~max_fanin:4) in
  return { n_inputs; gates }

(* Wide and sparse: many excited gates that do not read each other, so
   most interleavings commute and the sleep sets prune. *)
let gen_wide_spec =
  let open QCheck.Gen in
  let* n_inputs = int_range 1 3 in
  let* gates = list_size (int_range 6 16) (gen_gate ~max_fanin:2) in
  return { n_inputs; gates }

let build spec =
  let b = Circuit.Builder.create "kernel" in
  for i = 0 to spec.n_inputs - 1 do
    ignore (Circuit.Builder.add_input b (Printf.sprintf "i%d" i) : int)
  done;
  let ids =
    List.mapi
      (fun i _ -> Circuit.Builder.declare_gate b ~name:(Printf.sprintf "g%d" i))
      spec.gates
  in
  let n = (2 * spec.n_inputs) + List.length spec.gates in
  List.iter2
    (fun id g ->
      let fanin = List.map (fun p -> p mod n) g.picks in
      let func =
        match kinds.(g.kind) with
        | Const _ -> Gatefunc.Const g.const
        | Sop _ ->
          let width = List.length fanin in
          Gatefunc.Sop
            (Cover.make ~n:width
               (List.map (fun l -> Cube.make (Array.of_list l)) g.cubes))
        | f -> f
      in
      Circuit.Builder.define_gate b id func fanin)
    ids spec.gates;
  List.iter (Circuit.Builder.mark_output b) ids;
  Circuit.Builder.finalize b

let print_spec spec = Parser.to_string (build spec)
let spec_arb = QCheck.make gen_spec ~print:print_spec
let wide_arb = QCheck.make gen_wide_spec ~print:print_spec

(* A random (generally unstable) state from a seed. *)
let state_of_seed c seed =
  let rng = Random.State.make [| seed |] in
  Array.init (Circuit.n_nodes c) (fun _ -> Random.State.bool rng)

(* --- outcomes compared across the two implementations -------------------- *)

type 'a outcome =
  | Done of 'a
  | Limit
  | Tripped of Guard.reason

let render states =
  String.concat " " (List.map (fun s -> Ref_async.key s) states)

let run_guarded ~budget f =
  let guard =
    match budget with
    | None -> Guard.create ()
    | Some t -> Guard.create ~max_transitions:t ()
  in
  let r =
    try Done (f guard) with
    | Async_sim.Frontier_limit | Ref_async.Frontier_limit -> Limit
    | Guard.Exhausted r -> Tripped r
  in
  (r, Guard.transitions_used guard)

let same_outcome what (a, ta) (b, tb) =
  let show = function
    | Done s -> "done " ^ s
    | Limit -> "frontier limit"
    | Tripped r -> "tripped " ^ Guard.reason_to_string r
  in
  if a <> b || ta <> tb then
    QCheck.Test.fail_reportf
      "%s: kernel %s (%d transitions), reference %s (%d transitions)" what
      (show a) ta (show b) tb
  else true

let states_after_agree ?max_frontier ?hold ~budget c ~k s =
  same_outcome "states_after"
    (run_guarded ~budget (fun guard ->
         render (Async_sim.states_after ?max_frontier ?hold ~guard c ~k s)))
    (run_guarded ~budget (fun guard ->
         render (Ref_async.states_after ?max_frontier ?hold ~guard c ~k s)))

let show_kernel = function
  | Async_sim.C_settles s -> "settles " ^ Ref_async.key s
  | Async_sim.C_invalid l -> "invalid " ^ render l
  | Async_sim.C_capped -> "capped"

let show_ref = function
  | Ref_async.C_settles s -> "settles " ^ Ref_async.key s
  | Ref_async.C_invalid l -> "invalid " ^ render l
  | Ref_async.C_capped -> "capped"

let classify_agree ?max_frontier ~budget c ~k s v =
  same_outcome "classify_vector"
    (run_guarded ~budget (fun guard ->
         show_kernel (Async_sim.classify_vector ?max_frontier ~guard c ~k s v)))
    (run_guarded ~budget (fun guard ->
         show_ref (Ref_async.classify_vector ?max_frontier ~guard c ~k s v)))

let vectors c =
  let n = Circuit.n_inputs c in
  List.init (1 lsl n) (fun m -> Array.init n (fun i -> m land (1 lsl i) <> 0))

(* --- properties -------------------------------------------------------- *)

let prop_eval =
  QCheck.Test.make ~long_factor:10 ~name:"compiled gate program = eval_gate"
    ~count:300
    QCheck.(pair spec_arb (int_bound 100_000))
    (fun (spec, seed) ->
      let c = build spec in
      List.for_all
        (fun seed ->
          let s = state_of_seed c seed in
          let packed = State.of_bools s in
          Array.for_all
            (fun g ->
              Circuit.eval_packed c packed 0 g = Circuit.eval_gate c s g)
            (Circuit.gates c))
        (List.init 8 (fun i -> seed + i)))

let budget_gen = QCheck.Gen.(opt ~ratio:0.5 (int_bound 60))
let frontier_gen = QCheck.Gen.(opt ~ratio:0.6 (int_range 1 12))

let prop_states_after =
  QCheck.Test.make ~long_factor:10
    ~name:"states_after = reference (order, guard, limits, hold)" ~count:400
    QCheck.(
      pair spec_arb
        (make
           Gen.(
             quad (int_bound 100_000) (int_bound 12)
               (pair frontier_gen budget_gen)
               (opt (pair (int_bound 1000) bool)))))
    (fun (spec, (seed, k, (max_frontier, budget), hold)) ->
      let c = build spec in
      let gates = Circuit.gates c in
      let hold =
        Option.map (fun (p, v) -> (gates.(p mod Array.length gates), v)) hold
      in
      states_after_agree ?max_frontier ?hold ~budget c ~k
        (state_of_seed c seed))

let prop_settle =
  QCheck.Test.make ~long_factor:10 ~name:"settle = reference" ~count:300
    QCheck.(triple spec_arb (int_bound 100_000) (int_bound 30))
    (fun (spec, seed, max_steps) ->
      let c = build spec in
      let s = state_of_seed c seed in
      Async_sim.settle c ~max_steps s = Ref_async.settle c ~max_steps s)

let prop_classify =
  QCheck.Test.make ~long_factor:10
    ~name:"classify_vector and apply_vector = reference" ~count:300
    QCheck.(
      pair spec_arb
        (make
           Gen.(
             quad (int_bound 100_000) (int_range 1 24) frontier_gen
               budget_gen)))
    (fun (spec, (seed, k, max_frontier, budget)) ->
      let c = build spec in
      match Ref_async.settle c ~max_steps:64 (state_of_seed c seed) with
      | None -> QCheck.assume_fail ()
      | Some s ->
        List.for_all
          (fun v ->
            classify_agree ?max_frontier ~budget c ~k s v
            &&
            let expected =
              let finals =
                Ref_async.states_after c ~k (Circuit.apply_input_vector c s v)
              in
              if not (List.for_all (Circuit.is_stable c) finals) then
                Async_sim.Exceeds_budget
              else
                match finals with
                | [ s' ] -> Async_sim.Settles s'
                | l -> Async_sim.Non_confluent l
            in
            Async_sim.apply_vector c ~k s v = expected)
          (vectors c))

(* --- wide netlists: the sleep sets prune, the layers must not move -------- *)

let prop_wide_layers =
  QCheck.Test.make ~long_factor:10
    ~name:"wide netlists: states_after = reference at every layer" ~count:300
    QCheck.(
      pair wide_arb
        (make
           Gen.(
             quad (int_bound 100_000) (int_bound 10)
               (pair (int_range 8 400) budget_gen)
               (opt (pair (int_bound 1000) bool)))))
    (fun (spec, (seed, k, (max_frontier, budget), hold)) ->
      let c = build spec in
      let gates = Circuit.gates c in
      let hold =
        Option.map (fun (p, v) -> (gates.(p mod Array.length gates), v)) hold
      in
      let s = state_of_seed c seed in
      List.for_all
        (fun k -> states_after_agree ~max_frontier ?hold ~budget c ~k s)
        (List.init (k + 1) Fun.id))

let prop_wide_classify =
  QCheck.Test.make ~long_factor:10
    ~name:"wide netlists: classify_vector = reference" ~count:200
    QCheck.(
      pair wide_arb
        (make
           Gen.(triple (int_bound 100_000) (int_range 1 16) (int_range 8 400))))
    (fun (spec, (seed, k, max_frontier)) ->
      let c = build spec in
      match Ref_async.settle c ~max_steps:64 (state_of_seed c seed) with
      | None -> QCheck.assume_fail ()
      | Some s ->
        List.for_all
          (fun v -> classify_agree ~max_frontier ~budget:None c ~k s v)
          (vectors c))

(* Eight independent buffer chains (input buffer, then an output
   buffer), all started at once: every interleaving commutes.  An
   exhaustive step probes the next frontier once per fireable gate of
   every state (once for a stable one); the sleep sets must probe at
   most half as often, or the reduction has been switched off. *)
let test_probes_drop () =
  let b = Circuit.Builder.create "farm" in
  for i = 0 to 7 do
    let x = Circuit.Builder.add_input b (Printf.sprintf "x%d" i) in
    Circuit.Builder.mark_output b
      (Circuit.Builder.add_gate b ~name:(Printf.sprintf "y%d" i) Gatefunc.Buf
         [ x ])
  done;
  let c = Circuit.Builder.finalize b in
  let s1 =
    Circuit.apply_input_vector c
      (Array.make (Circuit.n_nodes c) false)
      (Array.make 8 true)
  in
  let k = 20 in
  let fireable s = List.length (Ref_async.fireable c None s) in
  (* (probes of an exhaustive step, layers stepped) *)
  let rec exhaustive i acc =
    let layer = Ref_async.states_after c ~k:i s1 in
    if i >= k || List.for_all (fun s -> fireable s = 0) layer then (acc, i)
    else
      exhaustive (i + 1)
        (List.fold_left (fun acc s -> acc + max 1 (fireable s)) acc layer)
  in
  let exhaustive, layers = exhaustive 0 0 in
  Async_sim.reset_stats ();
  let got = Async_sim.states_after c ~k s1 in
  let st = Async_sim.stats () in
  Alcotest.(check string) "final layer"
    (render (Ref_async.states_after c ~k s1))
    (render got);
  if st.probes * 2 > exhaustive then
    Alcotest.failf "%d successor probes, an exhaustive step makes %d" st.probes
      exhaustive;
  (* Every firing commutes, so each state of each later layer is
     reached along exactly one interleaving. *)
  let widths =
    List.fold_left ( + ) 0
      (List.init layers (fun i ->
           List.length (Ref_async.states_after c ~k:(i + 1) s1)))
  in
  Alcotest.(check int) "every probe fresh" st.probes st.fresh;
  Alcotest.(check int) "one probe per state of each later layer" widths
    st.probes

(* The counters are per domain and summed over all of them: a parallel
   build counts the same work as a sequential one, also after its pool
   workers have exited. *)
let test_counters_summed () =
  let b = Circuit.Builder.create "farm4" in
  for i = 0 to 3 do
    let x = Circuit.Builder.add_input b (Printf.sprintf "x%d" i) in
    Circuit.Builder.mark_output b
      (Circuit.Builder.add_gate b ~name:(Printf.sprintf "y%d" i) Gatefunc.Buf
         [ x ])
  done;
  let c = Circuit.Builder.finalize b in
  let c = Circuit.with_initial c (Array.make (Circuit.n_nodes c) false) in
  let counted build =
    Async_sim.reset_stats ();
    let g = build () in
    (Satg_sg.Cssg.n_states g, Async_sim.stats ())
  in
  let seq = counted (fun () -> Satg_sg.Explicit.build c) in
  let par =
    counted (fun () ->
        Satg_pool.Pool.with_pool ~jobs:2 (fun pool ->
            Satg_sg.Explicit.build_par ~pool c))
  in
  let show (n, (st : Async_sim.stats)) =
    Printf.sprintf "%d states, %d probes, %d fresh, %d pruned" n st.probes
      st.fresh st.sleep_pruned
  in
  Alcotest.(check string) "-j2 = sequential" (show seq) (show par);
  Alcotest.(check bool) "work counted" true ((snd seq).probes > 0)

(* A directed netlist for the merge rule of the sleep sets (see the
   header of [corpus/sleep_merge.cct]): every layer must equal the
   reference. *)
let test_sleep_merge () =
  let c =
    match Parser.parse_file "corpus/sleep_merge.cct" with
    | Ok c -> c
    | Error e -> failwith e
  in
  let s = Ref_async.state_of_key "010011" in
  for k = 0 to 12 do
    Alcotest.(check string)
      (Printf.sprintf "layer %d" k)
      (render (Ref_async.states_after c ~k s))
      (render (Async_sim.states_after c ~k s))
  done

(* --- a two-word netlist: latch-8, redundant covers (108 nodes) ------------ *)

let latch8 =
  lazy
    (match Parser.parse_file "corpus/latch8_redundant.cct" with
    | Ok c -> c
    | Error e -> failwith e)

let test_latch8 () =
  let c = Lazy.force latch8 in
  Alcotest.(check int) "two words per state" 2 (Circuit.words c);
  let k = Structure.default_k c in
  let reset = Option.get (Circuit.initial c) in
  let g = Satg_sg.Explicit.build ~k c in
  let stables = List.init (Satg_sg.Cssg.n_states g) (Satg_sg.Cssg.state g) in
  Alcotest.(check bool) "reset among the states" true (List.mem reset stables);
  List.iter
    (fun s ->
      List.iter
        (fun v ->
          let s1 = Circuit.apply_input_vector c s v in
          List.iter
            (fun (max_frontier, budget) ->
              Alcotest.(check bool) "classify_vector" true
                (classify_agree ?max_frontier ~budget c ~k s v);
              Alcotest.(check bool) "states_after" true
                (states_after_agree ?max_frontier ~budget c ~k s1))
            (* capped: the reference keeps every frontier of the cycle
               check, which a wide 424-layer run would make huge *)
            [ (Some 64, None); (Some 3, None); (Some 64, Some 25) ])
        (vectors c))
    stables

(* A gross delay fault on every gate of latch-8 that the first vector
   excites: the [hold] veto against the reference's per-transition
   predicate. *)
let test_hold () =
  let c = Lazy.force latch8 in
  let k = Structure.default_k c in
  let reset = Option.get (Circuit.initial c) in
  List.iter
    (fun v ->
      let s1 = Circuit.apply_input_vector c reset v in
      Array.iter
        (fun g ->
          List.iter
            (fun slow_to ->
              Alcotest.(check bool) "states_after ~hold" true
                (states_after_agree ~max_frontier:128 ~hold:(g, slow_to)
                   ~budget:None c ~k s1))
            [ false; true ])
        (Array.sub (Circuit.gates c) 0 12))
    (vectors c)

let suites =
  [
    ( "kernel",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_eval;
          prop_states_after;
          prop_settle;
          prop_classify;
          prop_wide_layers;
          prop_wide_classify;
        ]
      @ [
          Alcotest.test_case "sleep sets cut the probes" `Quick test_probes_drop;
          Alcotest.test_case "sleep-mask merge (directed netlist)" `Quick
            test_sleep_merge;
          Alcotest.test_case "counters summed over domains" `Quick
            test_counters_summed;
          Alcotest.test_case "latch-8 redundant (two words)" `Quick test_latch8;
          Alcotest.test_case "delay-fault hold" `Quick test_hold;
        ] );
  ]
