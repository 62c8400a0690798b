(* In-memory span recorder for the traced run.  Spans are opened
   around calls into the library from the benchmark's own code, kept
   in memory, and written out once at the end; self time is a span's
   duration minus the part its children cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  op : int;  (** Operation id shared by every span of one operation. *)
  parent : int;  (** [-1] for a root span. *)
  start_ns : int;
  mutable stop_ns : int;
}

let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let with_span ~op name f =
  let s =
    { id = !next_id; name; op; parent = !current; start_ns = now_ns (); stop_ns = 0 }
  in
  incr next_id;
  recorded := s :: !recorded;
  let saved = !current in
  current := s.id;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- now_ns ();
      current := saved)
    f

let dur s = s.stop_ns - s.start_ns
let all () = List.rev !recorded

(* Self time of every span, by span id. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s - Option.value ~default:0 (Hashtbl.find_opt children s.id)))
    spans

(* Summed self time (ms) of the subtrees rooted at spans named [root],
   by operation id. *)
let subtree_self_ms root =
  let spans = all () in
  let in_tree = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if String.equal s.name root || (s.parent >= 0 && Hashtbl.mem in_tree s.parent) then
        Hashtbl.replace in_tree s.id ())
    spans;
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if Hashtbl.mem in_tree s.id then
        Hashtbl.replace by_op s.op
          ((float_of_int self /. 1e6) +. Option.value ~default:0.0 (Hashtbl.find_opt by_op s.op)))
    (self_times spans);
  by_op

let write path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
        s.id s.name s.op s.parent s.start_ns s.stop_ns self)
    (self_times (all ()));
  close_out oc
