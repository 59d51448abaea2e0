(* End-to-end ATPG benchmark.

     python3 perfbench/run.py --workload cssg_heavy --seed 1 --seconds 30 --trace 0

   Workloads (see BENCHMARK.json and perfbench/README.md):
   - cssg_heavy: one-shot runs whose wall is the explicit CSSG build;
   - search_heavy: one-shot runs whose wall is the three-phase search,
     each netlist under the explicit, bdd and sat engines;
   - serve_mixed: a forked daemon answering a skewed request stream.

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics of a separate traced
   pass, and the spans go to .perfbench/trace-WORKLOAD-SEED.jsonl.
   Every output is checked against perfbench/expected.txt; a failed
   check makes the run incorrect and the exit code 1.

   --record prints the expected records of every workload instead (how
   perfbench/expected.txt was made); --daemon SOCKET is the daemon
   process serve_mixed starts. *)

open Harness

let usage () =
  prerr_endline
    "usage: main.exe --workload cssg_heavy|search_heavy|serve_mixed --seed N \
     --seconds S --trace 0|1\n       main.exe --record";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let record () =
  let replays = ref [] and counts = ref [] in
  let line (it : Items.item) =
    let c = Items.or_fail it.id (Satg_circuit.Parser.parse_string it.netlist) in
    let r = Satg_core.Session.run ~config:it.config c it.universe in
    let s = Satg_core.Session.summary_of_result r in
    print_endline (Items.record_line it.id (Items.record_of s));
    List.iter
      (fun f -> replays := Items.replay_line it.id f :: !replays)
      (Items.replay_failures r);
    let _, item_counts = Replica.run (Span.create ()) it in
    counts :=
      Items.counts_line it.id (List.map snd (Replica.fingerprint item_counts))
      :: !counts
  in
  print_endline "# id given detected degraded partition-md5";
  List.iter line (Items.cssg_heavy () @ Items.search_heavy ());
  List.iter (fun (k : Serve.key) -> line k.item) (Serve.keys ());
  print_endline
    "# emitted tests failing Detect.check_exact at the seed: replay id failure";
  List.iter print_endline (List.rev !replays);
  let fields = List.map fst (Replica.fingerprint (Replica.zero_counts ())) in
  print_endline
    ("# exact work counts at the seed: counts id " ^ String.concat " " fields);
  List.iter print_endline (List.rev !counts)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
  | [ "--record" ] ->
    record ();
    exit 0
  | [ "--daemon"; socket ] -> Serve.daemon socket
  | _ -> ());
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let r =
    match workload with
    | "cssg_heavy" ->
      Oneshot.run ~items_of:Items.cssg_heavy ~seed ~seconds ~trace
    | "search_heavy" ->
      Oneshot.run ~items_of:Items.search_heavy ~seed ~seconds ~trace
    | "serve_mixed" -> Serve.run ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let ck = r.Oneshot.ck in
  let per_layer =
    if trace then
      r.per_layer
      @ [
          metric "detect.replay_failures" "count"
            (float_of_int (List.length ck.findings));
        ]
    else []
  in
  let metrics = if trace then per_layer else r.end_to_end in
  List.iter
    (fun m ->
      invariant ck (Float.is_finite m.value) (m.name ^ " is not finite"))
    metrics;
  Printf.printf "workload %s  seed %d  seconds %g  trace %b  host_cores %d\n"
    workload seed seconds trace host_cores;
  List.iter
    (fun m ->
      Printf.printf "%-28s %.6g %s%s\n" m.name m.value m.unit
        (if m.detail = "" then "" else "  " ^ m.detail))
    (r.end_to_end @ per_layer @ r.printed);
  Printf.printf "failed_frac %.6g (%d of %d operations)\n"
    (float_of_int ck.failed /. float_of_int (max 1 ck.attempted))
    ck.failed ck.attempted;
  List.iter (fun n -> Printf.printf "CHECK FAILED: %s\n" n) (List.rev ck.notes);
  List.iter (fun n -> Printf.printf "FINDING: %s\n" n) (List.rev ck.findings);
  List.iter
    (fun (id, change) ->
      Printf.printf "WORK DIFFERS FROM THE SEED: %s: %s\n" id change)
    (List.rev ck.count_changes);
  if trace then begin
    let path =
      Printf.sprintf "%s/trace-%s-%d.jsonl" Serve.socket_dir workload seed
    in
    ensure_dir Serve.socket_dir;
    Span.write r.spans path;
    Printf.printf "spans -> %s\n" path
  end;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (correct ck) (max 1 ck.attempted) ck.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Span.json_string m.name)
              (if Float.is_finite m.value then json_number m.value else "0.0")
              (Span.json_string m.unit))
          metrics));
  exit (if correct ck then 0 else 1)
