type t = int array

let bits = 63

let words n_nodes = max 1 ((n_nodes + bits - 1) / bits)
let word i = i / bits
let mask i = 1 lsl (i mod bits)

let of_bools s =
  let st = Array.make (words (Array.length s)) 0 in
  Array.iteri
    (fun i b -> if b then st.(word i) <- st.(word i) lor mask i)
    s;
  st

(* Multiply-xorshift mixing: the table index takes the low bits, so the
   final fold brings the well-mixed high bits down. *)
let hash_sub a off w =
  let h = ref w in
  for j = off to off + w - 1 do
    h := (!h lxor a.(j)) * 0x1F3D5B79A3C1E5B7
  done;
  let h = !h in
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let hash st = hash_sub st 0 (Array.length st)

(* Top-level loops, not local closures: these run once per probe. *)
let rec equal_from a ao b bo w j =
  j = w
  || a.(ao + j) = b.(bo + j) && equal_from a ao b bo w (j + 1)

let equal_sub a ao b bo w = equal_from a ao b bo w 0

let equal a b =
  Array.length a = Array.length b && equal_sub a 0 b 0 (Array.length a)

(* Node 0 is bit 0 of word 0: the lowest differing bit is the lowest
   differing node, and the state holding 0 there sorts first. *)
let rec compare_from a ao b bo w j =
  if j = w then 0
  else
    let x = a.(ao + j) and y = b.(bo + j) in
    if x = y then compare_from a ao b bo w (j + 1)
    else
      let d = x lxor y in
      if x land (d land -d) = 0 then -1 else 1

let compare_sub a ao b bo w = compare_from a ao b bo w 0

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare_sub a 0 b 0 (Array.length a)

(* Index of the single set bit of [low] (a power of two below 2^63):
   2 is a primitive root modulo 67, so [2^i mod 67] is distinct for
   i < 62; bit 62 is the sign bit and handled apart. *)
let ctz_table =
  let t = Array.make 67 0 in
  for i = 0 to 61 do
    t.((1 lsl i) mod 67) <- i
  done;
  t

let bit_index low = if low = min_int then 62 else ctz_table.(low mod 67)

let set_key states =
  let packed = List.sort compare (List.map of_bools states) in
  let buf = Buffer.create 64 in
  List.iter
    (Array.iter (fun x -> Buffer.add_int64_le buf (Int64.of_int x)))
    packed;
  Buffer.contents buf

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let dedup states =
  let seen = Tbl.create 16 in
  List.filter
    (fun s ->
      let key = of_bools s in
      (not (Tbl.mem seen key)) && (Tbl.replace seen key (); true))
    states

module Set = struct
  type t = {
    mutable key : int;  (* words hashed and compared *)
    mutable stride : int;  (* key words plus payload words *)
    mutable arena : int array;
    mutable hashes : int array;  (* per entry *)
    mutable slot_of : int array;  (* per entry: its slot, for [clear] *)
    mutable slots : int array;  (* entry index, or -1 *)
    mutable count : int;
  }

  let create ~words () =
    {
      key = words;
      stride = words;
      arena = Array.make (16 * words) 0;
      hashes = Array.make 16 0;
      slot_of = Array.make 16 0;
      slots = Array.make 32 (-1);
      count = 0;
    }

  let clear t =
    for e = 0 to t.count - 1 do
      Array.unsafe_set t.slots (Array.unsafe_get t.slot_of e) (-1)
    done;
    t.count <- 0

  let reset ?(payload = 0) t ~words =
    clear t;
    t.key <- words;
    t.stride <- words + payload;
    if Array.length t.arena < Array.length t.hashes * t.stride then
      t.arena <- Array.make (Array.length t.hashes * t.stride) 0

  let count t = t.count
  let arena t = t.arena
  let stride t = t.stride
  let hash_of t e = t.hashes.(e)

  let rec probe slots m arena stride key src off i =
    let e = Array.unsafe_get slots i in
    if e < 0 then -1 - i
    else if equal_sub arena (e * stride) src off key then e
    else probe slots m arena stride key src off ((i + 1) land m)

  (* Entry index of the key at [src.(off ..)], or [-1 - slot] of the
     free slot where it would go. *)
  let locate t h src off =
    let m = Array.length t.slots - 1 in
    probe t.slots m t.arena t.stride t.key src off (h land m)

  let find_sub t src off =
    let r = locate t (hash_sub src off t.key) src off in
    if r >= 0 then r else -1

  let mem_sub t src off = find_sub t src off >= 0

  let grow t =
    let cap = Array.length t.hashes * 2 in
    let arena = Array.make (cap * t.stride) 0 in
    Array.blit t.arena 0 arena 0 (t.count * t.stride);
    t.arena <- arena;
    let extend a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 t.count;
      a'
    in
    t.hashes <- extend t.hashes;
    t.slot_of <- extend t.slot_of;
    let slots = Array.make (2 * cap) (-1) in
    let m = 2 * cap - 1 in
    for e = 0 to t.count - 1 do
      let rec free i = if slots.(i) < 0 then i else free ((i + 1) land m) in
      let i = free (t.hashes.(e) land m) in
      slots.(i) <- e;
      t.slot_of.(e) <- i
    done;
    t.slots <- slots

  (* The entry index; the key is fresh iff the index equals the count
     before the call.  Copies [stride] words (key and payload). *)
  let add_sub t src off =
    let h = hash_sub src off t.key in
    let r = locate t h src off in
    if r >= 0 then r
    else begin
      let r =
        if t.count < Array.length t.hashes then r
        else begin
          grow t;
          locate t h src off
        end
      in
      let e = t.count in
      let slot = -1 - r in
      t.slots.(slot) <- e;
      t.slot_of.(e) <- slot;
      t.hashes.(e) <- h;
      Array.blit src off t.arena (e * t.stride) t.stride;
      t.count <- e + 1;
      e
    end

  let add t st = add_sub t st 0
  let find t st = find_sub t st 0
end
