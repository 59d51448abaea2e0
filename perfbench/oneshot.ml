(* The one-shot workloads (cssg_heavy, search_heavy): every item runs
   from netlist text to rendered report through [Session.run] with the
   sequential pipeline, one pass = every item once, in a seeded order
   that changes from pass to pass. *)

open Satg_circuit
open Satg_core
open Harness

(* One item, untraced: the timed operation.  Callers compact the heap
   first (untimed) so that an item's time does not depend on which items
   ran before it: each starts as a one-shot CLI run does, on a small
   heap. *)
let run_item (it : Items.item) =
  let c = Items.or_fail it.Items.id (Parser.parse_string it.netlist) in
  let s =
    Session.summary_of_result (Session.run ~config:it.config c it.universe)
  in
  ignore (render c s : string);
  s

type result = {
  ck : check;
  end_to_end : metric list;
  per_layer : metric list;
  printed : metric list;  (** per-layer figures printed, not reported *)
  spans : Span.t list;
}

let run ~items_of ~seed ~seconds ~trace =
  let expected = Items.load_expected () in
  let items, setup_again, setup_samples =
    setup ~reps:5 ~same:( = ) (fun () -> Array.of_list (items_of ()))
  in
  let n = Array.length items in
  let ck = check () in
  (* the untraced partition of each item, for the replica and
     cross-engine checks *)
  let partitions = Hashtbl.create n in
  let checked (it : Items.item) (s : Session.summary) =
    let p = Items.partition s.Session.outcomes in
    (match Hashtbl.find_opt partitions it.id with
    | Some p' when p' <> p ->
      op ck (Some (it.id ^ ": partition changed between runs"))
    | Some _ | None ->
      op ck (Items.mismatch expected it.id (Items.record_of s)));
    Hashtbl.replace partitions it.id p
  in
  (* warm-up: one untimed, unchecked pass that runs every layer of
     every item, with the CSSG build capped so that it costs about a
     second even where a full build takes several (trimos-send); the
     time saved goes to timed passes *)
  Array.iter
    (fun i ->
      let it = items.(i) in
      ignore
        (run_item
           {
             it with
             Items.config =
               { it.Items.config with Engine.max_transitions = Some 20_000 };
           }
          : Session.summary))
    (order ~seed ~pass:0 n);
  let plain = ref [] and traced_walls = ref [] in
  let traced = ref [] and counts = ref [] in
  (* latencies indexed by item, whatever order the pass ran them in *)
  let plain_pass pass =
    let lat = Array.make n 0. in
    Array.iter
      (fun i ->
        Gc.compact ();
        let t0 = Span.now () in
        let s = run_item items.(i) in
        lat.(i) <- Span.now () -. t0;
        checked items.(i) s)
      (order ~seed ~pass n);
    plain := lat :: !plain
  in
  let seen = Hashtbl.create n in
  let traced_pass pass =
    let tr = Span.create () and c = Replica.zero_counts () in
    let wall = ref 0. in
    let results =
      Array.map
        (fun i ->
          Gc.compact ();
          let t0 = Span.now () in
          let r = Replica.run tr items.(i) in
          wall := !wall +. (Span.now () -. t0);
          (items.(i), r))
        (order ~seed ~pass n)
    in
    traced_walls := !wall :: !traced_walls;
    Array.iter
      (fun ((it : Items.item), (r, item_counts)) ->
        let p =
          Items.partition (Session.summary_of_result r).Session.outcomes
        in
        op ck
          (if Hashtbl.find_opt partitions it.id = Some p then None
           else Some (it.id ^ ": traced partition differs from Session.run's"));
        traced_check ck expected seen it.id r
          (Replica.fingerprint item_counts);
        Replica.add c item_counts)
      results;
    traced := tr :: !traced;
    counts := c :: !counts
  in
  let t_start = Span.now () in
  let rec passes pass =
    setup_again ();
    if trace && pass mod 2 = 0 then traced_pass pass else plain_pass pass;
    (* at least three timed passes, so each item's median drops an
       outlier; two traced passes, so the nondeterminism check compares
       every item's counts with a second run *)
    let enough =
      if trace then !plain <> [] && List.length !traced >= 2
      else List.length !plain >= 3
    in
    if not (enough && measured ~t_start ~seconds ~passes:pass) then
      passes (pass + 1)
  in
  passes 1;
  let rss = peak_rss_mb "self" in
  (* explicit = bdd = sat on every netlist *)
  Array.iter
    (fun (it : Items.item) ->
      Array.iter
        (fun (other : Items.item) ->
          if Items.netlist_id it.id = Items.netlist_id other.id then
            invariant ck
              (Hashtbl.find_opt partitions it.id
              = Hashtbl.find_opt partitions other.id)
              (Printf.sprintf "%s and %s partitions differ" it.id other.id))
        items)
    items;
  let given, detected =
    Array.fold_left
      (fun (g, d) (it : Items.item) ->
        let p = Hashtbl.find partitions it.id in
        (g + String.length p, d + Items.count_detected p))
      (0, 0) items
  in
  let walls = List.map (Array.fold_left ( +. ) 0.) !plain in
  let setup_samples = setup_samples () in
  let end_to_end =
    [
      metric "wall_s" "s" (typical_pass !plain)
        ~detail:
          (Printf.sprintf "item medians summed; pass walls %s"
             (Stats.describe "s" walls));
      metric "setup_s" "s" (Stats.median setup_samples)
        ~detail:(Stats.describe "s" setup_samples ^ " set-ups");
      metric "peak_rss_mb" "MB" rss;
      metric "coverage_pct" "%"
        (100. *. float_of_int detected /. float_of_int given)
        ~detail:(Printf.sprintf "%d/%d faults per pass" detected given);
    ]
  in
  let per_layer, printed =
    match !counts with
    | [] -> ([], [])
    | c :: _ ->
      let coverage = coverage_check ck !traced in
      Layers.metrics ~passes:!traced ~counts:c
        ~overhead_s:(Stats.median !traced_walls -. Stats.median walls)
        ~coverage ~serve:None
  in
  let item_lines =
    Array.to_list
      (Array.mapi
         (fun i (it : Items.item) ->
           let samples = List.map (fun a -> a.(i)) !plain in
           metric ("item." ^ it.id) "s" (Stats.median samples)
             ~detail:(Stats.describe "s" samples))
         items)
  in
  {
    ck;
    end_to_end;
    per_layer;
    printed = printed @ item_lines;
    spans = List.rev !traced;
  }
