(* A deliberately naive reference for the unbounded-delay semantics,
   kept only as a test oracle for [Satg_sim.Async_sim]: frontiers are
   sorted lists of '0'/'1' strings, every state is decoded again on
   every layer, excitation is rescanned gate by gate through the
   unpacked [Circuit.eval_gate], and nothing is memoized.  It charges
   the guard and trips the frontier limit at the same points as the
   kernel, so the two can be compared on work as well as results. *)

open Satg_guard
open Satg_circuit

exception Frontier_limit

let key s = String.init (Array.length s) (fun i -> if s.(i) then '1' else '0')
let state_of_key k = Array.init (String.length k) (fun i -> k.[i] = '1')
let norm keys = List.sort_uniq String.compare keys

(* [hold = (g, v)]: gate [g] never completes a transition to [v]. *)
let can_fire c hold s g =
  match hold with
  | None -> true
  | Some (h, v) -> not (g = h && Circuit.eval_gate c s g = v && s.(g) <> v)

let fireable c hold s =
  List.filter (can_fire c hold s) (Circuit.excited_gates c s)

let step c hold frontier =
  norm
    (List.concat_map
       (fun sk ->
         let s = state_of_key sk in
         match fireable c hold s with
         | [] -> [ sk ]
         | gates -> List.map (fun g -> key (Circuit.fire c s g)) gates)
       frontier)

let all_stable c hold frontier =
  List.for_all (fun sk -> fireable c hold (state_of_key sk) = []) frontier

let states_after ?(max_frontier = max_int) ?hold ?(guard = Guard.none) c ~k s =
  let rec go i frontier =
    let width = List.length frontier in
    if width > max_frontier then raise Frontier_limit;
    if i >= k || all_stable c hold frontier then frontier
    else begin
      Guard.spend_transitions guard width;
      go (i + 1) (step c hold frontier)
    end
  in
  List.map state_of_key (go 0 [ key s ])

let settle c ~max_steps s =
  let rec go i s =
    match Circuit.excited_gates c s with
    | [] -> Some s
    | g :: _ -> if i >= max_steps then None else go (i + 1) (Circuit.fire c s g)
  in
  go 0 s

type classification =
  | C_settles of bool array
  | C_invalid of bool array list
  | C_capped

let classify_vector ?(max_frontier = max_int) ?(guard = Guard.none) c ~k s v =
  if not (Circuit.is_stable c s) then invalid_arg "Ref_async.classify_vector";
  let rec go i frontier stables seen =
    let width = List.length frontier in
    Guard.spend_transitions guard width;
    let stable sk = Circuit.is_stable c (state_of_key sk) in
    let stables = norm (stables @ List.filter stable frontier) in
    let invalid () = C_invalid (List.map state_of_key stables) in
    if List.length stables >= 2 then invalid ()
    else if width > max_frontier then C_capped
    else if all_stable c None frontier then
      C_settles (state_of_key (List.hd frontier))
    else if i >= k then invalid ()
    else if width <= 4096 then
      if List.mem frontier seen then invalid ()
      else go (i + 1) (step c None frontier) stables (frontier :: seen)
    else go (i + 1) (step c None frontier) stables seen
  in
  go 0 [ key (Circuit.apply_input_vector c s v) ] [] []
