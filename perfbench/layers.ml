(* The per-layer metrics every workload reports under --trace 1, named
   for the module they measure. *)

open Harness

(* Client-side and daemon-side figures of the serve_mixed workload. *)
type serve = {
  ping_ms : float;
  hit_ratio : float;
  pool_create_s : float;
  hit_p50_ms : float;
  hit_p99_ms : float;
  miss_p50_ms : float;
  miss_p90_ms : float;
  requests_per_s : float;
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* [passes]: the span recorder of each traced pass, all over the same
   items; times are medians across passes.  [counts] is one pass's work
   (identical in every pass — the caller checks).

   Returns the reported metrics and the ones only printed.  A reported
   time is one every workload spends, so it is never a constant 0; a
   layer only some workloads reach is reported as a count or as its
   share of the time around it (0 where it does not run), and its own
   times are printed.  [serve] is the daemon's figures (serve_mixed
   only). *)
let metrics ~passes ~(counts : Replica.counts) ~overhead_s ~coverage ~serve =
  let per_pass name = List.map (fun tr -> Span.totals tr name) passes in
  let time name =
    let samples = per_pass name in
    metric
      ~detail:(Stats.describe "s" samples ^ " traced passes")
      (name ^ "_s") "s" (Stats.median samples)
  in
  (* median over passes of f applied to each pass's span totals *)
  let of_totals f =
    Stats.median (List.map (fun tr -> f (Span.totals tr)) passes)
  in
  let share part whole =
    of_totals (fun t -> if t whole > 0. then t part /. t whole else 0.)
  in
  let count name v = metric name "count" (float_of_int v) in
  let c = counts in
  let reported =
    [
      time "explicit.build";
      count "explicit.transitions" c.transitions;
      count "cssg.states" c.states;
      count "cssg.edges" c.edges;
      count "explicit.truncated" c.truncated;
      time "three_phase.find_test";
      count "three_phase.calls" c.calls;
      metric "three_phase.found_ratio" "ratio" (ratio c.found c.calls);
      count "three_phase.aborted" c.aborted;
      count "three_phase.product_edges" c.product_edges;
      metric "three_phase.justify_share" "ratio"
        (share "three_phase.justify" "three_phase.find_test");
      metric "three_phase.differentiate_share" "ratio"
        (share "three_phase.differentiate" "three_phase.find_test");
      metric "three_phase.other_s" "s"
        (of_totals (fun t ->
             t "three_phase.find_test" -. t "three_phase.justify"
             -. t "three_phase.differentiate"));
      metric "symbolic.build_share" "ratio" (share "symbolic.build" "item");
      count "bdd.peak_nodes" c.bdd_peak_nodes;
      metric "bdd.cache_hit_rate" "ratio"
        (ratio c.bdd_cache_hits c.bdd_cache_lookups);
      count "sat.solves" c.sat_solves;
      count "sat.decisions" c.sat_decisions;
      count "sat.conflicts" c.sat_conflicts;
      time "random_tpg.run";
      metric "random_tpg.detect_ratio" "ratio"
        (ratio c.random_detected c.random_targets);
      time "detect.sweep";
      count "detect.sweep_caught" c.sweep_caught;
      time "parser.parse";
      time "fault.collapse";
      count "fault.targets" c.targets;
      time "session.render";
      metric "service.hit_ratio" "ratio"
        (match serve with Some s -> s.hit_ratio | None -> 0.);
      metric "trace.overhead_s" "s" overhead_s;
      metric "trace.span_coverage" "ratio" coverage;
    ]
  in
  let printed =
    [
      time "three_phase.justify";
      time "three_phase.differentiate";
      time "symbolic.build";
      time "sat_engine.create";
    ]
    @
    match serve with
    | None -> []
    | Some s ->
      [
        metric "proto.ping_ms" "ms" s.ping_ms;
        metric "pool.create_s" "s" s.pool_create_s;
        metric "service.hit_p50_ms" "ms" s.hit_p50_ms;
        metric "service.hit_p99_ms" "ms" s.hit_p99_ms;
        metric "service.miss_p50_ms" "ms" s.miss_p50_ms;
        metric "service.miss_p90_ms" "ms" s.miss_p90_ms;
        metric "service.requests_per_s" "1/s" s.requests_per_s;
      ]
  in
  (reported, printed)
