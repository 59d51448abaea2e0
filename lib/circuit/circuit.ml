open Satg_logic

type node =
  | Env
  | Gate of {
      func : Gatefunc.t;
      fanin : int array;
    }

(* A gate compiled to masks over packed-state words (see [State]):
   [ws.(j)] is a word index and [ms.(j)] the fanin bits read in it. *)
type op =
  | Op_env
  | Op_const of bool
  | Op_lit of { w : int; m : int; neg : bool }  (** BUF / NOT *)
  | Op_all of { ws : int array; ms : int array; neg : bool }  (** AND / NAND *)
  | Op_any of { ws : int array; ms : int array; neg : bool }  (** OR / NOR *)
  | Op_parity of { ws : int array; ms : int array; neg : bool }
      (** XOR / XNOR; a pin read twice cancels out of its mask *)
  | Op_mux of { sw : int; sm : int; aw : int; am : int; bw : int; bm : int }
  | Op_celem of { ws : int array; ms : int array; self_w : int; self_m : int }
  | Op_sop of {
      cw : int array array;
      care : int array array;
      value : int array array;
    }  (** per satisfiable cube: words, care bits, required values *)

type t = {
  name : string;
  nodes : node array;
  node_name : string array;
  inputs : int array;
  buffer_of : int array;
  outputs : int array;
  gate_ids : int array;
  fanout : int list array;  (* gate readers of each node *)
  prog : op array;  (* per node, compiled eagerly: Lazy is not domain-safe *)
  affected : int array array;
      (* per node: the gates whose excitation can change when it does *)
  by_name : (string, int) Hashtbl.t;
  initial : bool array option;
}

(* ------------------------------------------------------------------ *)
(* Gate program                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-word masks of a node list, words in order of first appearance;
   [combine] merges a node's bit into its word's mask. *)
let group combine nodes =
  let acc = ref [] in
  List.iter
    (fun i ->
      let w = State.word i and b = State.mask i in
      acc :=
        if List.mem_assoc w !acc then
          List.map
            (fun (w', m) -> if w' = w then (w', combine m b) else (w', m))
            !acc
        else (w, b) :: !acc)
    nodes;
  let l = List.rev !acc in
  (Array.of_list (List.map fst l), Array.of_list (List.map snd l))

(* A cube as (word, care, value) triples; [None] when two pins read the
   same node with opposite literals. *)
let compile_cube fanin cube =
  let rec go acc p =
    if p = Array.length fanin then Some (List.rev acc)
    else
      match Cube.lit cube p with
      | Cube.D -> go acc (p + 1)
      | (Cube.T | Cube.F) as l -> (
        let w = State.word fanin.(p) and b = State.mask fanin.(p) in
        let v = if l = Cube.T then b else 0 in
        match List.assoc_opt w acc with
        | Some (care, value) ->
          if care land b <> 0 then
            if value land b = v then go acc (p + 1) else None
          else
            go
              ((w, (care lor b, value lor v)) :: List.remove_assoc w acc)
              (p + 1)
        | None -> go ((w, (b, v)) :: acc) (p + 1))
  in
  go [] 0

let compile_gate gid func fanin =
  let pins = Array.to_list fanin in
  let lit i = (State.word i, State.mask i) in
  match (func : Gatefunc.t) with
  | Buf | Not ->
    let w, m = lit fanin.(0) in
    Op_lit { w; m; neg = func = Not }
  | And | Nand ->
    let ws, ms = group ( lor ) pins in
    Op_all { ws; ms; neg = func = Nand }
  | Or | Nor ->
    let ws, ms = group ( lor ) pins in
    Op_any { ws; ms; neg = func = Nor }
  | Xor | Xnor ->
    let ws, ms = group ( lxor ) pins in
    Op_parity { ws; ms; neg = func = Xnor }
  | Mux ->
    let sw, sm = lit fanin.(0) in
    let aw, am = lit fanin.(1) and bw, bm = lit fanin.(2) in
    Op_mux { sw; sm; aw; am; bw; bm }
  | Celem ->
    let ws, ms = group ( lor ) pins in
    let self_w, self_m = lit gid in
    Op_celem { ws; ms; self_w; self_m }
  | Const b -> Op_const b
  | Sop cover ->
    let cubes = List.filter_map (compile_cube fanin) (Cover.cubes cover) in
    let field f =
      Array.of_list (List.map (fun c -> Array.of_list (List.map f c)) cubes)
    in
    Op_sop
      {
        cw = field fst;
        care = field (fun (_, (c, _)) -> c);
        value = field (fun (_, (_, v)) -> v);
      }

let compile nodes =
  Array.mapi
    (fun gid -> function
      | Env -> Op_env
      | Gate { func; fanin } -> compile_gate gid func fanin)
    nodes

let recompute_fanout nodes =
  let n = Array.length nodes in
  let fanout = Array.make n [] in
  Array.iteri
    (fun gid node ->
      match node with
      | Gate { fanin; _ } ->
        Array.iter (fun src -> fanout.(src) <- gid :: fanout.(src)) fanin
      | Env -> ())
    nodes;
  Array.map List.rev fanout

let compute_affected nodes fanout =
  Array.mapi
    (fun i readers ->
      let self = match nodes.(i) with Gate _ -> [ i ] | Env -> [] in
      Array.of_list (List.sort_uniq Int.compare (self @ readers)))
    fanout

(* Everything derived from the node array, rebuilt by every
   constructor and transformation. *)
let with_nodes t nodes =
  let fanout = recompute_fanout nodes in
  let affected = compute_affected nodes fanout in
  { t with nodes; fanout; prog = compile nodes; affected }

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  type pending =
    | P_env
    | P_gate of Gatefunc.t * int array
    | P_declared

  type t = {
    cname : string;
    mutable rev_nodes : (string * pending) list;  (* reversed *)
    mutable count : int;
    mutable b_inputs : int list;  (* reversed env ids *)
    mutable b_buffers : int list;  (* reversed buffer ids *)
    mutable b_outputs : int list;  (* reversed *)
    names : (string, int) Hashtbl.t;
  }

  let create cname =
    {
      cname;
      rev_nodes = [];
      count = 0;
      b_inputs = [];
      b_buffers = [];
      b_outputs = [];
      names = Hashtbl.create 32;
    }

  let fresh b nm pending =
    if Hashtbl.mem b.names nm then
      invalid_arg (Printf.sprintf "Builder: duplicate node name %S" nm);
    let id = b.count in
    b.count <- id + 1;
    Hashtbl.replace b.names nm id;
    b.rev_nodes <- (nm, pending) :: b.rev_nodes;
    id

  let add_input b nm =
    let env = fresh b (nm ^ "$env") P_env in
    let buf = fresh b nm (P_gate (Gatefunc.Buf, [| env |])) in
    b.b_inputs <- env :: b.b_inputs;
    b.b_buffers <- buf :: b.b_buffers;
    buf

  let add_gate b ~name func ins =
    fresh b name (P_gate (func, Array.of_list ins))

  let declare_gate b ~name = fresh b name P_declared

  let define_gate b id func ins =
    (* rev_nodes is reversed: node [id] sits at position [count - 1 - id]
       from the front. *)
    let rec update_rev i = function
      | [] -> invalid_arg "Builder.define_gate: unknown node"
      | ((nm, pending) as entry) :: rest ->
        if i = id then
          match pending with
          | P_declared -> (nm, P_gate (func, Array.of_list ins)) :: rest
          | P_env | P_gate _ ->
            invalid_arg "Builder.define_gate: node already defined"
        else entry :: update_rev (i - 1) rest
    in
    b.rev_nodes <- update_rev (b.count - 1) b.rev_nodes

  let mark_output b id =
    if id < 0 || id >= b.count then invalid_arg "Builder.mark_output: bad id";
    b.b_outputs <- id :: b.b_outputs

  let finalize b =
    let nodes_list = List.rev b.rev_nodes in
    let n = b.count in
    let nodes = Array.make n Env in
    let node_name = Array.make n "" in
    List.iteri
      (fun i (nm, pending) ->
        node_name.(i) <- nm;
        match pending with
        | P_env -> nodes.(i) <- Env
        | P_declared ->
          invalid_arg (Printf.sprintf "Builder: gate %S never defined" nm)
        | P_gate (func, fanin) ->
          if not (Gatefunc.arity_ok func (Array.length fanin)) then
            invalid_arg
              (Printf.sprintf "Builder: gate %S has bad arity %d for %s" nm
                 (Array.length fanin) (Gatefunc.name func));
          Array.iter
            (fun src ->
              if src < 0 || src >= n then
                invalid_arg
                  (Printf.sprintf "Builder: gate %S reads bad node %d" nm src))
            fanin;
          nodes.(i) <- Gate { func; fanin })
      nodes_list;
    let gate_ids =
      Array.of_list
        (List.filteri
           (fun i _ -> match nodes.(i) with Gate _ -> true | Env -> false)
           (List.init n Fun.id))
    in
    let fanout = recompute_fanout nodes in
    {
      name = b.cname;
      nodes;
      node_name;
      inputs = Array.of_list (List.rev b.b_inputs);
      buffer_of = Array.of_list (List.rev b.b_buffers);
      outputs = Array.of_list (List.rev b.b_outputs);
      gate_ids;
      fanout;
      prog = compile nodes;
      affected = compute_affected nodes fanout;
      by_name = Hashtbl.copy b.names;
      initial = None;
    }
end

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let name t = t.name
let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let node_name t i = t.node_name.(i)
let find_node t nm = Hashtbl.find_opt t.by_name nm
let inputs t = t.inputs
let buffer_of_input t k = t.buffer_of.(k)

let input_names t =
  Array.map (fun buf -> t.node_name.(buf)) t.buffer_of

let outputs t = t.outputs
let gates t = t.gate_ids
let n_inputs t = Array.length t.inputs
let n_gates t = Array.length t.gate_ids
let initial t = t.initial
let is_env t i = match t.nodes.(i) with Env -> true | Gate _ -> false

let fanins t i =
  match t.nodes.(i) with
  | Gate { fanin; _ } -> fanin
  | Env -> invalid_arg "Circuit.fanins: environment node"

let func t i =
  match t.nodes.(i) with
  | Gate { func; _ } -> func
  | Env -> invalid_arg "Circuit.func: environment node"

let fanouts t i = t.fanout.(i)

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

let eval_gate t s gid =
  match t.nodes.(gid) with
  | Env -> invalid_arg "Circuit.eval_gate: environment node"
  | Gate { func; fanin } ->
    let ins = Array.map (fun src -> s.(src)) fanin in
    Gatefunc.eval_bool func ~self:s.(gid) ins

let eval_gate_ternary t s gid =
  match t.nodes.(gid) with
  | Env -> invalid_arg "Circuit.eval_gate_ternary: environment node"
  | Gate { func; fanin } ->
    let ins = Array.map (fun src -> s.(src)) fanin in
    Gatefunc.eval_ternary func ~self:s.(gid) ins

let gate_excited t s gid = eval_gate t s gid <> s.(gid)

let excited_gates t s =
  Array.fold_right
    (fun gid acc -> if gate_excited t s gid then gid :: acc else acc)
    t.gate_ids []

let is_stable t s =
  Array.for_all (fun gid -> not (gate_excited t s gid)) t.gate_ids

let fire t s gid =
  let s' = Array.copy s in
  s'.(gid) <- eval_gate t s gid;
  s'

let apply_input_vector t s v =
  if Array.length v <> Array.length t.inputs then
    invalid_arg "Circuit.apply_input_vector: wrong vector length";
  let s' = Array.copy s in
  Array.iteri (fun k env -> s'.(env) <- v.(k)) t.inputs;
  s'

let input_vector_of_state t s = Array.map (fun env -> s.(env)) t.inputs
let output_values t s = Array.map (fun o -> s.(o)) t.outputs

(* --- packed states: the compiled gate program ------------------------ *)

let words t = State.words (Array.length t.nodes)
let affected t i = t.affected.(i)

let rec all_set a off ws ms j =
  j = Array.length ws
  ||
  let m = Array.unsafe_get ms j in
  a.(off + Array.unsafe_get ws j) land m = m
  && all_set a off ws ms (j + 1)

let rec any_set a off ws ms j =
  j < Array.length ws
  && (a.(off + Array.unsafe_get ws j) land Array.unsafe_get ms j <> 0
     || any_set a off ws ms (j + 1))

let parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  (x lxor (x lsr 1)) land 1

let rec parity_of a off ws ms j acc =
  if j = Array.length ws then acc = 1
  else
    parity_of a off ws ms (j + 1)
      (acc
      lxor parity (a.(off + Array.unsafe_get ws j) land Array.unsafe_get ms j))

let rec cube_holds a off cw care value j =
  j = Array.length cw
  || a.(off + Array.unsafe_get cw j) land Array.unsafe_get care j
     = Array.unsafe_get value j
     && cube_holds a off cw care value (j + 1)

let rec some_cube a off cw care value c =
  c < Array.length cw
  && (cube_holds a off (Array.unsafe_get cw c) (Array.unsafe_get care c)
        (Array.unsafe_get value c) 0
     || some_cube a off cw care value (c + 1))

let bit a off w m = a.(off + w) land m <> 0

let eval_packed t a off gid =
  match t.prog.(gid) with
  | Op_lit { w; m; neg } -> bit a off w m <> neg
  | Op_all { ws; ms; neg } -> all_set a off ws ms 0 <> neg
  | Op_any { ws; ms; neg } -> any_set a off ws ms 0 <> neg
  | Op_parity { ws; ms; neg } -> parity_of a off ws ms 0 0 <> neg
  | Op_mux { sw; sm; aw; am; bw; bm } ->
    if bit a off sw sm then bit a off aw am else bit a off bw bm
  | Op_celem { ws; ms; self_w; self_m } ->
    if all_set a off ws ms 0 then true
    else any_set a off ws ms 0 && bit a off self_w self_m
  | Op_const b -> b
  | Op_sop { cw; care; value } -> some_cube a off cw care value 0
  | Op_env -> invalid_arg "Circuit.eval_packed: environment node"

let state_to_string (_ : t) s =
  String.init (Array.length s) (fun i -> if s.(i) then '1' else '0')

let with_initial t s =
  if Array.length s <> Array.length t.nodes then
    invalid_arg "Circuit.with_initial: wrong state length";
  let bad =
    Array.to_list t.gate_ids |> List.filter (fun gid -> gate_excited t s gid)
  in
  (match bad with
  | [] -> ()
  | gid :: _ ->
    invalid_arg
      (Printf.sprintf "Circuit.with_initial: gate %S not stable in reset state"
         t.node_name.(gid)));
  { t with initial = Some (Array.copy s) }

(* ------------------------------------------------------------------ *)
(* Transformation                                                      *)
(* ------------------------------------------------------------------ *)

let add_const_node t b =
  let n = Array.length t.nodes in
  let nodes = Array.append t.nodes [| Gate { func = Gatefunc.Const b; fanin = [||] } |] in
  let nm = Printf.sprintf "$const%d_%s" n (if b then "1" else "0") in
  let node_name = Array.append t.node_name [| nm |] in
  let by_name = Hashtbl.copy t.by_name in
  Hashtbl.replace by_name nm n;
  let initial =
    Option.map (fun s -> Array.append s [| b |]) t.initial
  in
  ( with_nodes
      {
        t with
        node_name;
        by_name;
        gate_ids = Array.append t.gate_ids [| n |];
        initial;
      }
      nodes,
    n )

let retarget_pin t ~gate ~pin target =
  (match t.nodes.(gate) with
  | Env -> invalid_arg "Circuit.retarget_pin: environment node"
  | Gate { fanin; _ } ->
    if pin < 0 || pin >= Array.length fanin then
      invalid_arg "Circuit.retarget_pin: bad pin");
  if target < 0 || target >= Array.length t.nodes then
    invalid_arg "Circuit.retarget_pin: bad target";
  let nodes = Array.copy t.nodes in
  (match nodes.(gate) with
  | Gate { func; fanin } ->
    let fanin = Array.copy fanin in
    fanin.(pin) <- target;
    nodes.(gate) <- Gate { func; fanin }
  | Env -> assert false);
  with_nodes t nodes

let replace_func t ~gate f =
  match t.nodes.(gate) with
  | Env -> invalid_arg "Circuit.replace_func: environment node"
  | Gate { fanin; _ } ->
    (* Keep the fanin when the new function accepts it; otherwise allow
       only nullary replacements (constants, for output stuck-at
       faults), which drop the fanin. *)
    let fanin =
      if Gatefunc.arity_ok f (Array.length fanin) then fanin
      else if Gatefunc.arity_ok f 0 then [||]
      else invalid_arg "Circuit.replace_func: arity mismatch"
    in
    let nodes = Array.copy t.nodes in
    nodes.(gate) <- Gate { func = f; fanin };
    with_nodes t nodes

(* ------------------------------------------------------------------ *)
(* Validation / stats                                                  *)
(* ------------------------------------------------------------------ *)

let validate t =
  let n = Array.length t.nodes in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun i nd ->
      match nd with
      | Env -> ()
      | Gate { func; fanin } ->
        if not (Gatefunc.arity_ok func (Array.length fanin)) then
          bad "gate %s: arity %d invalid for %s" t.node_name.(i)
            (Array.length fanin) (Gatefunc.name func);
        Array.iter
          (fun src ->
            if src < 0 || src >= n then
              bad "gate %s: fanin out of range" t.node_name.(i))
          fanin)
    t.nodes;
  Array.iteri
    (fun k env ->
      match t.nodes.(env) with
      | Env -> (
        match t.nodes.(t.buffer_of.(k)) with
        | Gate { func = Gatefunc.Buf; fanin = [| src |] } when src = env -> ()
        | Gate _ | Env -> bad "input %d: buffer wiring broken" k)
      | Gate _ -> bad "input %d: not an environment node" k)
    t.inputs;
  Array.iter
    (fun o ->
      if o < 0 || o >= n then bad "output id out of range"
      else if is_env t o then bad "output %s is an environment node" t.node_name.(o))
    t.outputs;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))

let pp_stats fmt t =
  Format.fprintf fmt
    "circuit %s: %d inputs, %d outputs, %d gates (%d nodes total)" t.name
    (n_inputs t) (Array.length t.outputs) (n_gates t) (n_nodes t)

let without_initial t = { t with initial = None }

let with_extra_outputs t extra =
  let n = Array.length t.nodes in
  List.iter
    (fun o ->
      if o < 0 || o >= n then invalid_arg "Circuit.with_extra_outputs: bad id";
      if is_env t o then
        invalid_arg "Circuit.with_extra_outputs: environment node")
    extra;
  let fresh =
    List.filter
      (fun o -> not (Array.exists (fun o' -> o' = o) t.outputs))
      (List.sort_uniq Stdlib.compare extra)
  in
  { t with outputs = Array.append t.outputs (Array.of_list fresh) }
