open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sim

type claim = {
  fault : Fault.t;
  sequence : Testset.sequence option;
  survives_validation : bool;
  truly_detects : bool;
  aborted : Guard.reason option;
}

type result = {
  circuit : Circuit.t;
  claims : claim list;
  cpu_seconds : float;
}

(* --- the synchronous (virtual flip-flop) model ---------------------------- *)

(* One test cycle: starting from the previous node values, evaluate the
   whole netlist combinationally in topological order; pins on cut
   feedback edges and the self-inputs of state-holding gates read the
   previous-cycle value (a virtual flip-flop). *)
type sync_model = {
  sc : Circuit.t;
  order : int list;  (* gates in topological order w.r.t. uncut edges *)
  cut : (int * int, unit) Hashtbl.t;  (* (gate, pin) of virtual FFs *)
}

let make_sync_model c =
  let break = Structure.feedback_edges c in
  let cut = Hashtbl.create 16 in
  List.iter
    (fun e -> Hashtbl.replace cut (e.Structure.gate, e.Structure.pin) ())
    break;
  let lv = Structure.levels c ~break in
  let order =
    Array.to_list (Circuit.gates c)
    |> List.sort (fun a b -> compare lv.(a) lv.(b))
  in
  { sc = c; order; cut }

let sync_step model prev vector =
  let c = model.sc in
  let cur = Circuit.apply_input_vector c prev vector in
  List.iter
    (fun gid ->
      let fanin = Circuit.fanins c gid in
      let ins =
        Array.mapi
          (fun pin src ->
            if Hashtbl.mem model.cut (gid, pin) then prev.(src) else cur.(src))
          fanin
      in
      (* State-holding self-input reads the previous cycle. *)
      cur.(gid) <- Gatefunc.eval_bool (Circuit.func c gid) ~self:prev.(gid) ins)
    model.order;
  cur

(* --- test generation on the product of good and faulty sync models -------- *)

let all_vectors n =
  List.init (1 lsl n) (fun mask ->
      Array.init n (fun i -> mask land (1 lsl i) <> 0))

let find_test_sync ~max_depth ~max_states guard good_model fault_model f0 good0
    =
  let c = good_model.sc in
  let vectors = all_vectors (Circuit.n_inputs c) in
  let key g fs = Array.append (State.of_bools g) (State.of_bools fs) in
  let differs g fs =
    Circuit.output_values c g <> Circuit.output_values fault_model.sc fs
  in
  if differs good0 f0 then Some []
  else begin
    let seen = State.Tbl.create 256 in
    let queue = Queue.create () in
    State.Tbl.replace seen (key good0 f0) ();
    Queue.add (good0, f0, [], 0) queue;
    let result = ref None in
    while !result = None && not (Queue.is_empty queue) do
      let g, fs, path, depth = Queue.take queue in
      if depth < max_depth then
        List.iter
          (fun v ->
            if !result = None && State.Tbl.length seen < max_states then begin
              Guard.spend_transition guard;
              let g' = sync_step good_model g v in
              let fs' = sync_step fault_model fs v in
              if differs g' fs' then result := Some (List.rev (v :: path))
              else begin
                let k = key g' fs' in
                if not (State.Tbl.mem seen k) then begin
                  State.Tbl.replace seen k ();
                  Queue.add (g', fs', v :: path, depth + 1) queue
                end
              end
            end)
          vectors
    done;
    !result
  end

(* --- unit-delay validation (what Banerjee et al. can check) --------------- *)

let unit_delay_validates good fc reset freset seq =
  let max_steps = 4 * (Circuit.n_nodes good + 2) in
  let rec go gs fs vectors saw_detection =
    match vectors with
    | [] -> saw_detection
    | v :: rest -> (
      match
        ( Unit_delay.apply_vector good ~max_steps gs v,
          Unit_delay.apply_vector fc ~max_steps fs v )
      with
      | Unit_delay.Settled (gs', _), Unit_delay.Settled (fs', _) ->
        let detect =
          Circuit.output_values good gs'
          <> Array.map (fun o -> fs'.(o)) (Circuit.outputs fc)
        in
        go gs' fs' rest (saw_detection || detect)
      | Unit_delay.Oscillates _, _ | _, Unit_delay.Oscillates _ ->
        (* Validation catches the oscillation: the vector sequence is
           rejected. *)
        false)
  in
  go reset freset seq false

let run ?(max_depth = 24) ?(max_states = 20_000) ?(guard = Guard.none) circuit
    ~cssg ~faults =
  let t0 = Guard.now () in
  let reset =
    match Circuit.initial circuit with
    | Some s -> s
    | None -> invalid_arg "Baseline.run: no reset state"
  in
  let good_model = make_sync_model circuit in
  let claims =
    List.map
      (fun f ->
        let work () =
          let fc = Fault.inject circuit f in
          let freset = Fault.initial_faulty_state circuit f reset in
          (* Settle the faulty machine once synchronously (the virtual-FF
             model needs a starting state). *)
          let fault_model = make_sync_model fc in
          let sequence =
            find_test_sync ~max_depth ~max_states guard good_model fault_model
              freset reset
          in
          let survives_validation =
            match sequence with
            | None -> false
            | Some seq -> unit_delay_validates circuit fc reset freset seq
          in
          { fault = f; sequence; survives_validation; truly_detects = false;
            aborted = None }
        in
        match Guard.guarded guard work with
        | Ok claim -> claim
        | Error reason ->
          { fault = f; sequence = None; survives_validation = false;
            truly_detects = false; aborted = Some reason })
      faults
  in
  (* The CSSG-truth check runs batched: claims sharing a candidate
     sequence (BFS often finds the same short test for many faults) are
     fault-simulated together in one multi-word bit-parallel sweep
     instead of one scalar ternary replay per fault. *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun c ->
      match c.sequence with
      | None -> ()
      | Some seq ->
        let key = Testset.sequence_to_string seq in
        let fs =
          match Hashtbl.find_opt groups key with
          | Some (_, fs) -> fs
          | None -> []
        in
        Hashtbl.replace groups key (seq, c.fault :: fs))
    claims;
  let truly = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (seq, fs) ->
      let det, _ = Detect.sweep cssg seq fs in
      List.iter (fun f -> Hashtbl.replace truly f ()) det)
    groups;
  let claims =
    List.map
      (fun c -> { c with truly_detects = Hashtbl.mem truly c.fault })
      claims
  in
  { circuit; claims; cpu_seconds = Guard.now () -. t0 }

let claimed r =
  List.length (List.filter (fun c -> c.sequence <> None) r.claims)

let validated r =
  List.length (List.filter (fun c -> c.survives_validation) r.claims)

let truly_detected r =
  List.length (List.filter (fun c -> c.truly_detects) r.claims)

let aborted r =
  List.length (List.filter (fun c -> c.aborted <> None) r.claims)

let pp_summary fmt r =
  Format.fprintf fmt
    "baseline %s: %d/%d claimed, %d survive unit-delay validation, %d truly valid (%.2fs)"
    (Circuit.name r.circuit) (claimed r) (List.length r.claims) (validated r)
    (truly_detected r) r.cpu_seconds;
  if aborted r > 0 then Format.fprintf fmt " [%d aborted]" (aborted r)
