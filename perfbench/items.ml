(* The one-shot items of each workload, their outcome partitions and
   the committed expected records they are checked against. *)

open Satg_circuit
open Satg_fault
open Satg_stg
open Satg_core
open Satg_bench

type item = {
  id : string;
  netlist : string;  (** [.cct] text: every timed run starts from it *)
  config : Engine.config;
  universe : Session.universe;
}

let or_fail what = function Ok x -> x | Error m -> failwith (what ^ ": " ^ m)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let input name = read_file (Filename.concat "perfbench/inputs" name)

let table_entry name =
  match Suite.find name with
  | Some e -> e
  | None -> failwith ("no suite benchmark " ^ name)

let family name n =
  (or_fail (Printf.sprintf "%s-%d" name n) (Suite.generate name ~n)).Suite.stg

let netlist what c = Parser.to_string (or_fail what c)
let redundant stg = Synth.decomposed ~redundant:true stg

let capped =
  {
    Engine.default_config with
    max_states = Some 500;
    max_transitions = Some 200_000;
  }

let one ?(config = Engine.default_config) id netlist =
  { id; netlist; config; universe = Session.Both }

(* arbiter6.cct is committed rather than synthesized: complex-gate
   synthesis of the 6-client arbiter takes minutes, far beyond a
   set-up phase.  The pathology pair is copied from examples/netlists
   so that the benchmark's inputs do not move with the examples. *)
let cssg_heavy () =
  [
    one ~config:capped "ring_storm" (input "ring_storm.cct");
    one ~config:capped "toggle_farm" (input "toggle_farm.cct");
    one "arbiter6-complex" (input "arbiter6.cct");
    one "latch2-redundant"
      (netlist "latch-2" (redundant (family "latch" 2)));
    one "trimos-send"
      (netlist "trimos-send" (Suite.bounded_delay (table_entry "trimos-send")));
  ]

let engines =
  [ ("explicit", Engine.Explicit); ("bdd", Engine.Bdd); ("sat", Engine.Sat) ]

let search_heavy () =
  let netlists =
    [
      ("dff", netlist "dff" (Suite.bounded_delay (table_entry "dff")));
      ("vbe6a", netlist "vbe6a" (Suite.bounded_delay (table_entry "vbe6a")));
      ( "pipeline2-redundant",
        netlist "pipeline-2" (redundant (family "pipeline" 2)) );
      ( "pipeline3-complex",
        netlist "pipeline-3" (Synth.complex_gate (family "pipeline" 3)) );
    ]
  in
  List.concat_map
    (fun (name, text) ->
      List.map
        (fun (ename, engine) ->
          one
            ~config:{ Engine.default_config with engine }
            (name ^ "/" ^ ename) text)
        engines)
    netlists

(* The netlist an item id names, without its "/engine" suffix. *)
let netlist_id id =
  match String.index_opt id '/' with Some i -> String.sub id 0 i | None -> id

(* --- outcomes ---------------------------------------------------------- *)

(* One letter per given fault, in universe order: Detected, Undetected,
   Aborted. *)
let partition outcomes =
  String.concat ""
    (List.map
       (fun (_, st) ->
         match st with
         | Testset.Detected _ -> "D"
         | Testset.Undetected -> "U"
         | Testset.Aborted _ -> "A")
       outcomes)

let count_detected p =
  String.fold_left (fun n ch -> if ch = 'D' then n + 1 else n) 0 p

(* The emitted tests (one per detected given fault) that do not replay
   under the exact faulty-machine semantics, as "fault (phase)". *)
let replay_failures (r : Engine.result) =
  List.filter_map
    (fun o ->
      match o.Testset.status with
      | Testset.Detected { sequence; phase }
        when not (Detect.check_exact r.Engine.cssg o.Testset.fault sequence) ->
        Some
          (Printf.sprintf "%s (%s)"
             (Fault.to_string r.circuit o.fault)
             (Testset.phase_name phase))
      | Testset.Detected _ | Testset.Undetected | Testset.Aborted _ -> None)
    r.Engine.outcomes

type record = {
  given : int;
  detected : int;
  degraded : bool;
  digest : string;  (** MD5 of the partition string *)
}

let record_of (s : Session.summary) =
  let p = partition s.Session.outcomes in
  {
    given = String.length p;
    detected = count_detected p;
    degraded = Session.degraded s;
    digest = Digest.to_hex (Digest.string p);
  }

let record_line id r =
  Printf.sprintf "%s %d %d %b %s" id r.given r.detected r.degraded r.digest

(* An emitted test that failed [Detect.check_exact] at the seed:
   "replay ID FAULT (PHASE)".  A run may lose such a failure (a fix),
   never gain one. *)
let replay_line id failure = Printf.sprintf "replay %s %s" id failure

(* An item's exact work counts at the seed, in [Replica.fingerprint]
   order: "counts ID N...". *)
let counts_line id values =
  String.concat " " ("counts" :: id :: List.map string_of_int values)

let expected_path = "perfbench/expected.txt"

type expected = {
  records : (string, record) Hashtbl.t;
  replays : (string * string, unit) Hashtbl.t;  (** (id, failure) *)
  counts : (string, int list) Hashtbl.t;
}

(* The committed file: "id given detected degraded md5", "replay ..."
   and "counts ..." lines, '#' comments. *)
let load_expected () =
  let tbl = Hashtbl.create 256
  and replays = Hashtbl.create 64
  and counts = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | "replay" :: id :: (_ :: _ as failure) ->
        Hashtbl.replace replays (id, String.concat " " failure) ()
      | "counts" :: id :: values ->
        Hashtbl.replace counts id (List.map int_of_string values)
      | [ id; given; detected; degraded; digest ] ->
        Hashtbl.replace tbl id
          {
            given = int_of_string given;
            detected = int_of_string detected;
            degraded = bool_of_string degraded;
            digest;
          }
      | [ "" ] -> ()
      | w :: _ when String.length w > 0 && w.[0] = '#' -> ()
      | _ -> failwith ("malformed line in " ^ expected_path ^ ": " ^ line))
    (String.split_on_char '\n' (read_file expected_path));
  { records = tbl; replays; counts }

(* [None] when the outcome matches the committed record, else why not. *)
let mismatch expected id r =
  match Hashtbl.find_opt expected.records id with
  | None -> Some (id ^ ": no expected record")
  | Some e when e = r -> None
  | Some e ->
    Some
      (Printf.sprintf "%s: got %s, expected %s" id (record_line id r)
         (record_line id e))

let known_replay_failure expected id failure =
  Hashtbl.mem expected.replays (id, failure)

(* [None] when the named counts equal the seed's, else the fields that
   differ, "name seed->now". *)
let counts_change expected id named =
  let now = List.map snd named in
  match Hashtbl.find_opt expected.counts id with
  | Some seed when seed = now -> None
  | Some seed when List.length seed = List.length now ->
    Some
      (String.concat ", "
         (List.concat
            (List.map2
               (fun (name, v) s ->
                 if v = s then [] else [ Printf.sprintf "%s %d->%d" name s v ])
               named seed)))
  | Some _ | None -> Some "no committed counts"
