(* The traced replica of a one-shot item: [Engine.run]'s sequential
   pipeline re-driven through each layer's public functions, with a
   span around every call and exact work counts taken at the same
   boundaries.  Its partition must equal [Session.run]'s on every item;
   the caller checks that, so a drift between this replica and the
   engine shows as a failed item, not as a wrong profile. *)

open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sg
open Satg_core

(* Work counts of one item, or summed over the items of a traced pass.
   Every field is an exact count (or a max of exact counts), so two
   traced runs of the same item must agree field for field. *)
type counts = {
  mutable transitions : int;  (** guard transitions spent by Explicit.build *)
  mutable states : int;
  mutable edges : int;
  mutable truncated : int;  (** items whose CSSG build was truncated *)
  mutable targets : int;  (** collapsed fault targets *)
  mutable random_targets : int;
  mutable random_detected : int;
  mutable calls : int;  (** Three_phase.find_test calls, retries included *)
  mutable found : int;
  mutable aborted : int;
  mutable product_edges : int;  (** transitions charged to per-fault guards *)
  mutable sweep_caught : int;
  mutable bdd_peak_nodes : int;  (** max over items *)
  mutable bdd_cache_hits : int;
  mutable bdd_cache_lookups : int;
  mutable sat_solves : int;
  mutable sat_decisions : int;
  mutable sat_conflicts : int;
}

let zero_counts () =
  {
    transitions = 0; states = 0; edges = 0; truncated = 0; targets = 0;
    random_targets = 0; random_detected = 0; calls = 0; found = 0;
    aborted = 0; product_edges = 0; sweep_caught = 0; bdd_peak_nodes = 0;
    bdd_cache_hits = 0; bdd_cache_lookups = 0; sat_solves = 0;
    sat_decisions = 0; sat_conflicts = 0;
  }

(* Every field by name, for the nondeterminism check and the committed
   seed counts. *)
let fingerprint c =
  [
    ("transitions", c.transitions); ("states", c.states);
    ("edges", c.edges); ("truncated", c.truncated); ("targets", c.targets);
    ("random_targets", c.random_targets);
    ("random_detected", c.random_detected); ("calls", c.calls);
    ("found", c.found); ("aborted", c.aborted);
    ("product_edges", c.product_edges); ("sweep_caught", c.sweep_caught);
    ("bdd_peak_nodes", c.bdd_peak_nodes);
    ("bdd_cache_hits", c.bdd_cache_hits);
    ("bdd_cache_lookups", c.bdd_cache_lookups);
    ("sat_solves", c.sat_solves); ("sat_decisions", c.sat_decisions);
    ("sat_conflicts", c.sat_conflicts);
  ]

(* Adds one item's counts [c] to the pass totals [acc]. *)
let add acc c =
  acc.transitions <- acc.transitions + c.transitions;
  acc.states <- acc.states + c.states;
  acc.edges <- acc.edges + c.edges;
  acc.truncated <- acc.truncated + c.truncated;
  acc.targets <- acc.targets + c.targets;
  acc.random_targets <- acc.random_targets + c.random_targets;
  acc.random_detected <- acc.random_detected + c.random_detected;
  acc.calls <- acc.calls + c.calls;
  acc.found <- acc.found + c.found;
  acc.aborted <- acc.aborted + c.aborted;
  acc.product_edges <- acc.product_edges + c.product_edges;
  acc.sweep_caught <- acc.sweep_caught + c.sweep_caught;
  acc.bdd_peak_nodes <- max acc.bdd_peak_nodes c.bdd_peak_nodes;
  acc.bdd_cache_hits <- acc.bdd_cache_hits + c.bdd_cache_hits;
  acc.bdd_cache_lookups <- acc.bdd_cache_lookups + c.bdd_cache_lookups;
  acc.sat_solves <- acc.sat_solves + c.sat_solves;
  acc.sat_decisions <- acc.sat_decisions + c.sat_decisions;
  acc.sat_conflicts <- acc.sat_conflicts + c.sat_conflicts

(* Engine.run's retry envelope for a fault that exhausted its budget. *)
let reduced_effort (c : Three_phase.config) =
  {
    Three_phase.max_depth = max 4 (c.max_depth / 2);
    max_product_states = max 64 (c.max_product_states / 2);
    max_activation_tries = max 2 (c.max_activation_tries / 2);
  }

let bdd_hits (s : Satg_bdd.Bdd.stats) =
  s.and_hits + s.or_hits + s.xor_hits + s.not_hits + s.ite_hits + s.flip_hits

let bdd_lookups (s : Satg_bdd.Bdd.stats) =
  bdd_hits s + s.and_misses + s.or_misses + s.xor_misses + s.not_misses
  + s.ite_misses + s.flip_misses

(* A backend whose justification and differentiation calls are spans
   nested under the enclosing find_test span. *)
let wrap tr (b : Three_phase.backend) =
  {
    b with
    Three_phase.backend_justify =
      (fun g s ->
        Span.within tr "three_phase.justify" (fun () -> b.backend_justify g s));
    backend_differentiate =
      Option.map
        (fun d g cfg m ~start ~fstates ->
          Span.within tr "three_phase.differentiate" (fun () ->
              d g cfg m ~start ~fstates))
        b.backend_differentiate;
  }

(* Run one item traced; returns the engine result (for the partition
   and replay checks) and the item's work counts. *)
let run tr (it : Items.item) =
  let counts = zero_counts () in
  let config = it.Items.config in
  let t0 = Sys.time () in
  let result =
    Span.item tr it.Items.id @@ fun () ->
    let c =
      Span.within tr "parser.parse" (fun () ->
          Items.or_fail it.id (Parser.parse_string it.netlist))
    in
    let faults =
      Span.within tr "session.faults_of" (fun () ->
          Session.faults_of c it.universe)
    in
    let targets =
      Span.within tr "fault.collapse" (fun () ->
          if config.collapse then Fault.collapse c faults else faults)
    in
    let run_guard =
      Guard.create ?timeout:config.timeout ?max_states:config.max_states
        ?max_transitions:config.max_transitions ()
    in
    let sub_guard () =
      Guard.sub ?max_states:config.max_states
        ?max_transitions:config.max_transitions run_guard
    in
    let g =
      Span.within tr "explicit.build" (fun () ->
          Explicit.build ?k:config.k ~guard:run_guard c)
    in
    counts.transitions <- counts.transitions + Guard.transitions_used run_guard;
    counts.states <- counts.states + Cssg.n_states g;
    counts.edges <- counts.edges + Cssg.n_edges g;
    if Cssg.truncated g <> None then counts.truncated <- counts.truncated + 1;
    counts.targets <- counts.targets + List.length targets;
    let symbolic =
      match config.engine with
      | Engine.Bdd ->
        Some
          (Span.within tr "symbolic.build" (fun () ->
               Symbolic.build ~k:(Cssg.k g) ~reorder:config.reorder
                 ~cluster_cap:config.cluster_cap ~guard:(sub_guard ()) c))
      | Engine.Explicit | Engine.Sat -> None
    in
    let status = Hashtbl.create (List.length targets) in
    let remaining =
      if config.enable_random then
        match
          Guard.guarded (sub_guard ()) (fun () ->
              Span.within tr "random_tpg.run" (fun () ->
                  Random_tpg.run ~config:config.random g ~faults:targets))
        with
        | Ok (detected, remaining) ->
          counts.random_targets <- counts.random_targets + List.length targets;
          counts.random_detected <-
            counts.random_detected + List.length detected;
          List.iter
            (fun (f, seq) ->
              Hashtbl.replace status f
                (Testset.Detected { sequence = seq; phase = Testset.Random }))
            detected;
          remaining
        | Error _ -> targets
      else targets
    in
    let sat = ref None in
    let backend =
      match config.engine with
      | Engine.Explicit -> None
      | Engine.Bdd ->
        Option.map
          (fun s -> wrap tr (Three_phase.symbolic_backend g s))
          symbolic
      | Engine.Sat ->
        let se =
          Span.within tr "sat_engine.create" (fun () -> Sat_engine.create g)
        in
        sat := Some se;
        Some (wrap tr (Sat_engine.backend se))
    in
    let attempt tp_config backend f =
      let guard = sub_guard () in
      counts.calls <- counts.calls + 1;
      let r =
        match
          Span.within tr "three_phase.find_test" (fun () ->
              Three_phase.find_test ~config:tp_config ~guard ?backend g f)
        with
        | Some seq ->
          counts.found <- counts.found + 1;
          `Found seq
        | None -> `Not_found
        | exception Guard.Exhausted r -> `Exhausted r
      in
      counts.product_edges <-
        counts.product_edges + Guard.transitions_used guard;
      r
    in
    let find f =
      match attempt config.three_phase backend f with
      | `Exhausted ((Guard.Timeout | Guard.Interrupt) as r) -> `Aborted r
      | `Exhausted _ -> (
        match attempt (reduced_effort config.three_phase) None f with
        | `Exhausted r -> `Aborted r
        | (`Found _ | `Not_found) as x -> x)
      | (`Found _ | `Not_found) as x -> x
    in
    let commit f rest = function
      | `Aborted r ->
        counts.aborted <- counts.aborted + 1;
        Hashtbl.replace status f (Testset.Aborted r);
        rest
      | `Not_found ->
        Hashtbl.replace status f Testset.Undetected;
        rest
      | `Found seq ->
        Hashtbl.replace status f
          (Testset.Detected { sequence = seq; phase = Testset.Three_phase });
        if config.enable_fault_sim then begin
          let caught, pending =
            Span.within tr "detect.sweep" (fun () -> Detect.sweep g seq rest)
          in
          counts.sweep_caught <- counts.sweep_caught + List.length caught;
          List.iter
            (fun f' ->
              Hashtbl.replace status f'
                (Testset.Detected
                   { sequence = seq; phase = Testset.Fault_simulation }))
            caught;
          pending
        end
        else rest
    in
    let rec loop = function
      | [] -> ()
      | f :: rest ->
        if Hashtbl.mem status f then loop rest
        else loop (commit f rest (find f))
    in
    loop remaining;
    let outcomes =
      Span.within tr "session.expand" (fun () ->
          let by_class = Hashtbl.create (List.length targets) in
          if config.collapse then
            List.iter
              (fun t ->
                match Hashtbl.find_opt status t with
                | Some s ->
                  Hashtbl.replace by_class (Fault.representative c t) s
                | None -> ())
              targets;
          List.map
            (fun f ->
              let s =
                match Hashtbl.find_opt status f with
                | Some s -> Some s
                | None when config.collapse ->
                  Hashtbl.find_opt by_class (Fault.representative c f)
                | None -> None
              in
              {
                Testset.fault = f;
                status = Option.value s ~default:Testset.Undetected;
              })
            faults)
    in
    let result =
      Span.within tr "engine.stats" (fun () ->
          {
            Engine.circuit = c;
            cssg = g;
            outcomes;
            cpu_seconds = Sys.time () -. t0;
            faults_searched = List.length targets;
            bdd_stats = Option.map Symbolic.bdd_stats symbolic;
            sat_stats = Option.map Sat_engine.stats !sat;
            cnf_defs = Option.map Sat_engine.defs_stats !sat;
          })
    in
    Span.within tr "session.render" (fun () ->
        ignore (Harness.render c (Session.summary_of_result result) : string));
    result
  in
  Option.iter
    (fun (s : Satg_bdd.Bdd.stats) ->
      counts.bdd_peak_nodes <- max counts.bdd_peak_nodes s.peak_nodes;
      counts.bdd_cache_hits <- counts.bdd_cache_hits + bdd_hits s;
      counts.bdd_cache_lookups <- counts.bdd_cache_lookups + bdd_lookups s)
    result.Engine.bdd_stats;
  Option.iter
    (fun (s : Satg_sat.Sat.stats) ->
      counts.sat_solves <- counts.sat_solves + s.solves;
      counts.sat_decisions <- counts.sat_decisions + s.decisions;
      counts.sat_conflicts <- counts.sat_conflicts + s.conflicts)
    result.Engine.sat_stats;
  (result, counts)
