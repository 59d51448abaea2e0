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

let gen_gate =
  let open QCheck.Gen in
  let* kind = int_bound (Array.length kinds - 1) in
  let* n_picks =
    match kinds.(kind) with
    | Buf | Not -> return 1
    | Mux -> return 3
    | Celem -> int_range 2 3
    | Const _ -> return 0
    | Sop _ -> int_range 1 3
    | And | Or | Nand | Nor | Xor | Xnor -> int_range 1 4
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
  let* gates = list_size (int_range 1 8) gen_gate in
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

let spec_arb =
  QCheck.make gen_spec ~print:(fun spec -> Parser.to_string (build spec))

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
  QCheck.Test.make ~name:"compiled gate program = eval_gate" ~count:300
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
  QCheck.Test.make
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
  QCheck.Test.make ~name:"settle = reference" ~count:300
    QCheck.(triple spec_arb (int_bound 100_000) (int_bound 30))
    (fun (spec, seed, max_steps) ->
      let c = build spec in
      let s = state_of_seed c seed in
      Async_sim.settle c ~max_steps s = Ref_async.settle c ~max_steps s)

let prop_classify =
  QCheck.Test.make ~name:"classify_vector and apply_vector = reference"
    ~count:300
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
        [ prop_eval; prop_states_after; prop_settle; prop_classify ]
      @ [
          Alcotest.test_case "latch-8 redundant (two words)" `Quick test_latch8;
          Alcotest.test_case "delay-fault hold" `Quick test_hold;
        ] );
  ]
