(* Pieces shared by every workload: output checks, metric records,
   seeded orderings, set-up repetition and the process's peak memory. *)

open Satg_core

(* Operations attempted and failed, plus run-wide invariants.  A run
   is correct when no operation failed and no invariant broke. *)
type check = {
  mutable attempted : int;
  mutable failed : int;
  mutable broken : bool;
  mutable notes : string list;  (** newest first, capped *)
  mutable findings : string list;
      (** known defects shown by the run, distinct, newest first *)
  mutable count_changes : (string * string) list;
      (** items whose work counts differ from the seed's, newest first *)
}

let check () =
  {
    attempted = 0; failed = 0; broken = false; notes = []; findings = [];
    count_changes = [];
  }

let note ck msg =
  if List.length ck.notes < 20 then ck.notes <- msg :: ck.notes

(* One operation (an item run or a request); [None] means it passed. *)
let op ck = function
  | None -> ck.attempted <- ck.attempted + 1
  | Some msg ->
    ck.attempted <- ck.attempted + 1;
    ck.failed <- ck.failed + 1;
    note ck msg

let invariant ck ok msg =
  if not ok then begin
    ck.broken <- true;
    note ck msg
  end

(* The checks on one traced run of an item, given its engine result
   and its named work counts.

   Every emitted test must replay under the exact faulty-machine
   semantics unless expected.txt lists it as failing at the seed; a
   listed one is printed as a finding.

   The counts must equal those of every earlier traced run of the item
   in this process, kept in [seen]: a count that drifts is
   nondeterminism.  Counts that differ from the seed's are printed, not
   failed, because a change may cut the work on purpose. *)
let traced_check ck expected seen id r counts =
  List.iter
    (fun f ->
      let msg = Printf.sprintf "%s: %s fails Detect.check_exact" id f in
      if not (Items.known_replay_failure expected id f) then
        invariant ck false (msg ^ " (not a known failure at the seed)")
      else if not (List.mem msg ck.findings) then
        ck.findings <- msg :: ck.findings)
    (Items.replay_failures r);
  (match Hashtbl.find_opt seen id with
  | None -> Hashtbl.replace seen id counts
  | Some first ->
    invariant ck (first = counts)
      (id ^ ": work counts drift between traced runs (nondeterminism)"));
  match Items.counts_change expected id counts with
  | Some change when not (List.mem_assoc id ck.count_changes) ->
    ck.count_changes <- (id, change) :: ck.count_changes
  | Some _ | None -> ()

(* Layer spans must cover 95% of the traced wall, over all items and on
   every item long enough to measure; returns the overall share. *)
let coverage_check ck recorders =
  List.fold_left
    (fun acc tr ->
      let total, (worst, item) = Span.coverage tr in
      invariant ck (total >= 0.95)
        (Printf.sprintf "layer spans cover only %.3f of the traced wall" total);
      invariant ck (worst >= 0.95)
        (Printf.sprintf "layer spans cover only %.3f of item %s" worst item);
      Float.min acc total)
    1. recorders

let correct ck = ck.failed = 0 && not ck.broken

type metric = { name : string; value : float; unit : string; detail : string }

let metric ?(detail = "") name unit value = { name; value; unit; detail }

(* A fresh permutation of [0, n) per (seed, pass): items interleave
   round-robin across passes in an order the seed fixes. *)
let order ~seed ~pass n =
  let st = Random.State.make [| seed; pass; 0x5eed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Set-up timed [reps] times at once and [reps] more on each [again]
   (the workloads call it before every timed pass), so its median spans
   the run as the passes do.  Every repetition must build equal inputs;
   the first one's are kept.  Returns the inputs, [again] and the
   samples so far. *)
let setup ~reps ~same f =
  let samples = ref [] in
  let timed () =
    let t0 = Span.now () in
    let x = f () in
    samples := (Span.now () -. t0) :: !samples;
    x
  in
  let value = timed () in
  let again () =
    for _ = 1 to reps do
      if not (same (timed ()) value) then failwith "set-up is not deterministic"
    done
  in
  again ();
  (value, again, fun () -> !samples)

(* Whether a run that started timing at [t_start] and has made [passes]
   equal-length passes has measured for about [seconds]: it stops at
   the pass boundary nearest to [seconds]. *)
let measured ~t_start ~seconds ~passes =
  let elapsed = Span.now () -. t_start in
  elapsed +. (elapsed /. float_of_int passes /. 2.) >= seconds

(* A typical pass: each operation's median latency over the passes,
   summed.  [passes] holds one latency array per pass, indexed by
   operation; a slow outlier on one operation in one pass drops out. *)
let typical_pass passes =
  match passes with
  | [] -> nan
  | p :: _ ->
    let total = ref 0. in
    Array.iteri
      (fun i _ ->
        total := !total +. Stats.median (List.map (fun a -> a.(i)) passes))
      p;
    !total

(* Peak resident set of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  scan ()

let render c (s : Session.summary) =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Session.render fmt c s;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let host_cores = Domain.recommended_domain_count ()

let ensure_dir d =
  try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
