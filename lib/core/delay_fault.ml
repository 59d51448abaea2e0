open Satg_guard
open Satg_circuit
open Satg_sim
open Satg_sg

type t = {
  gate : int;
  slow_to : bool;
}

let universe c =
  Array.fold_right
    (fun gid acc ->
      { gate = gid; slow_to = false } :: { gate = gid; slow_to = true } :: acc)
    (Circuit.gates c) []

let to_string c f =
  Printf.sprintf "%s/slow-%s"
    (Circuit.node_name c f.gate)
    (if f.slow_to then "rise" else "fall")

let step ~max_set g f states v =
  let c = Cssg.circuit g in
  let k = Cssg.k g in
  let out = ref [] in
  try
    List.iter
      (fun s ->
        let s1 = Circuit.apply_input_vector c s v in
        (* The delayed machine: the faulty gate never completes a
           transition to [slow_to] within a cycle. *)
        let finals =
          Async_sim.states_after ~max_frontier:max_set
            ~hold:(f.gate, f.slow_to) c ~k s1
        in
        out := finals @ !out;
        if List.length !out > 8 * max_set then raise Async_sim.Frontier_limit)
      states;
    let deduped = State.dedup !out in
    if List.length deduped > max_set then None else Some deduped
  with Async_sim.Frontier_limit -> None

let differs g i states =
  let c = Cssg.circuit g in
  let expected = Circuit.output_values c (Cssg.state g i) in
  states <> []
  && List.for_all (fun s -> Circuit.output_values c s <> expected) states

(* The delayed gate holds its (correct) reset value, so the faulty
   machine starts exactly in the reset state. *)
let start g =
  let c = Cssg.circuit g in
  match Circuit.initial c with
  | Some s -> [ s ]
  | None -> invalid_arg "Delay_fault: circuit has no reset state"

let find_test ?(max_depth = 24) ?(max_states = 4_000) ?(max_set = 128)
    ?(guard = Guard.none) g f =
  Guard.check_time guard;
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let result = ref None in
  (match Cssg.initial g with
  | i :: _ ->
    let f0 = start g in
    Hashtbl.replace seen (i, State.set_key f0) ();
    Queue.add (i, f0, [], 0) queue
  | [] -> ());
  while !result = None && not (Queue.is_empty queue) do
    let i, fsts, path, depth = Queue.take queue in
    if depth < max_depth then
      List.iter
        (fun e ->
          if !result = None && Hashtbl.length seen < max_states then begin
            Guard.spend_transition guard;
            let j = e.Cssg.target in
            match step ~max_set g f fsts e.Cssg.vector with
            | None -> ()
            | Some fsts' ->
              if differs g j fsts' then
                result := Some (List.rev (e.Cssg.vector :: path))
              else begin
                let key = (j, State.set_key fsts') in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.replace seen key ();
                  Queue.add (j, fsts', e.Cssg.vector :: path, depth + 1) queue
                end
              end
          end)
        (Cssg.successors g i)
  done;
  !result

let check g f seq =
  match Detect.good_trace g seq with
  | None -> false
  | Some trace ->
    let rec go trace fsts vectors =
      match trace with
      | [] -> false
      | i :: trace' ->
        differs g i fsts
        ||
        (match vectors with
        | [] -> false
        | v :: vs -> (
          match step ~max_set:128 g f fsts v with
          | None -> false
          | Some fsts' -> go trace' fsts' vs))
    in
    go trace (start g) seq

type status =
  | Found of Testset.sequence
  | Not_found
  | Aborted of Guard.reason

type result = {
  circuit : Circuit.t;
  outcomes : (t * status) list;
  cpu_seconds : float;
}

let run ?max_depth ?max_states ?(guard = Guard.none) g =
  let t0 = Guard.now () in
  let c = Cssg.circuit g in
  let outcomes =
    List.map
      (fun f ->
        match
          Guard.guarded guard (fun () ->
              find_test ?max_depth ?max_states ~guard g f)
        with
        | Ok (Some seq) -> (f, Found seq)
        | Ok None -> (f, Not_found)
        | Error reason -> (f, Aborted reason))
      (universe c)
  in
  { circuit = c; outcomes; cpu_seconds = Guard.now () -. t0 }

let detected r =
  List.length
    (List.filter (fun (_, s) -> match s with Found _ -> true | _ -> false)
       r.outcomes)

let aborted r =
  List.length
    (List.filter (fun (_, s) -> match s with Aborted _ -> true | _ -> false)
       r.outcomes)

let total r = List.length r.outcomes

let pp_summary fmt r =
  Format.fprintf fmt "%s: %d/%d gross delay faults detected (%.2fs)"
    (Circuit.name r.circuit) (detected r) (total r) r.cpu_seconds;
  if aborted r > 0 then Format.fprintf fmt " [%d aborted]" (aborted r)
