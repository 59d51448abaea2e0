open Satg_circuit

type outcome =
  | Settled of bool array * int
  | Oscillates of bool array list

let step c s =
  let s' = Array.copy s in
  Array.iter
    (fun gid -> s'.(gid) <- Circuit.eval_gate c s gid)
    (Circuit.gates c);
  s'

let run c ~max_steps s =
  let seen = State.Tbl.create 64 in
  let rec go i s trace =
    if Circuit.is_stable c s then Settled (s, i)
    else
      let k = State.of_bools s in
      match State.Tbl.find_opt seen k with
      | Some j ->
        (* States from step j onwards repeat. *)
        let cycle =
          List.rev trace |> List.filteri (fun idx _ -> idx >= j)
        in
        Oscillates cycle
      | None ->
        if i >= max_steps then Oscillates (List.rev trace)
        else begin
          State.Tbl.replace seen k i;
          go (i + 1) (step c s) (s :: trace)
        end
  in
  go 0 (Array.copy s) []

let apply_vector c ~max_steps s v =
  run c ~max_steps (Circuit.apply_input_vector c s v)
