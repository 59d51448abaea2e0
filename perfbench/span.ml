(* Monotonic clock and an in-memory span recorder.

   Spans are recorded only by the benchmark's traced pass, around calls
   into each layer's public functions; nothing inside the library is
   instrumented.  A span carries the item it belongs to and the span
   that caused it, so a layer's self time is its duration minus the
   part its children cover. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  item : string;
  name : string;
  tags : (string * string) list;
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable item : string;
}

let create () = { spans = []; next = 0; stack = []; item = "" }

(* [tags] may depend on the result, e.g. whether a request hit. *)
let within ?(tags = fun _ -> []) t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = now () in
  let close tags =
    let stop = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; item = t.item; name; tags; start; stop } :: t.spans
  in
  match f () with
  | x ->
    close (tags x);
    x
  | exception e ->
    close [ ("raised", Printexc.to_string e) ];
    raise e

(* Root span of one item; every span opened inside carries its id. *)
let item ?tags t id f =
  t.item <- id;
  within ?tags t "item" f

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* Summed duration per span name. *)
let totals t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = Option.value (Hashtbl.find_opt tbl s.name) ~default:0. in
      Hashtbl.replace tbl s.name (d +. duration s))
    t.spans;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.

(* Items shorter than this are left out of the per-item coverage
   check: below 10 ms, one GC slice landing between two layer calls is a
   tenth of the item. *)
let min_wall = 0.01

(* Share of root-span wall covered by direct children: over all items
   together, and the lowest per-item share (with its item) among items
   of at least [min_wall] seconds. *)
let coverage t =
  let covered = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = Option.value (Hashtbl.find_opt covered s.parent) ~default:0. in
        Hashtbl.replace covered s.parent (d +. duration s))
    t.spans;
  let cov s = Option.value (Hashtbl.find_opt covered s.id) ~default:0. in
  let roots = List.filter (fun s -> s.parent < 0) t.spans in
  let wall = List.fold_left (fun a s -> a +. duration s) 0. roots in
  let total = List.fold_left (fun a s -> a +. cov s) 0. roots in
  let worst =
    List.fold_left
      (fun ((w, _) as acc) s ->
        let c = cov s /. duration s in
        if duration s >= min_wall && c < w then (c, s.item) else acc)
      (1., "") roots
  in
  (total /. Float.max wall 1e-9, worst)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line for the spans of every recorder (ids made
   unique across recorders), times in seconds from the first span. *)
let write ts path =
  let spans, _ =
    List.fold_left
      (fun (acc, base) t ->
        let shift i = if i < 0 then i else i + base in
        ( acc
          @ List.map
              (fun s -> { s with id = shift s.id; parent = shift s.parent })
              (spans t),
          base + t.next ))
      ([], 0) ts
  in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"item\":%s,\"name\":%s,\
         \"start\":%.9f,\"end\":%.9f%s}\n"
        s.id s.parent (json_string s.item) (json_string s.name)
        (s.start -. t0) (s.stop -. t0)
        (String.concat ""
           (List.map
              (fun (k, v) ->
                Printf.sprintf ",%s:%s" (json_string k) (json_string v))
              s.tags)))
    spans;
  close_out oc
