(* The benchmark: four workloads from the library's cold path to
   the served cache.  Usage:

     bench.exe --workload W --seed N --seconds S --trace 0|1 --server EXE

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer metrics of a separate traced run (see README.md).  The
   last line of standard output is one JSON object. *)

module P = Wa_service.Protocol
module Engine = Wa_service.Engine
module Pipeline = Wa_core.Pipeline
module Schedule = Wa_core.Schedule
module Linkset = Wa_sinr.Linkset
module Pointset = Wa_geom.Pointset

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let server_exe = ref ""
let out_dir = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "cold-batch|cold-large|served-cold|served-hot");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "1: traced run with per-layer metrics");
      ("--server", Arg.Set_string server_exe, "the wireless_agg executable");
      ("--out", Arg.Set_string out_dir, "directory for the span file of a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --server EXE"

let seed = !seed
let seconds = !seconds
let params = Inputs.params

(* Bookkeeping ------------------------------------------------------------ *)

let errors = ref 0

let error fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      prerr_endline ("check failed: " ^ s))
    fmt

let attempted = ref 0
let failed = ref 0
let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let time_ms f =
  let t0 = Spans.now_ns () in
  let r = f () in
  (r, float_of_int (Spans.now_ns () - t0) /. 1e6)

let now_s () = float_of_int (Spans.now_ns ()) /. 1e9
let sum = List.fold_left ( +. ) 0.0

(* CPU time of this process, every domain counted, in ms.  The host
   lends the virtual CPUs of this machine to other machines now and
   then (steal time, in bursts of minutes); wall time counts those
   stretches and CPU time does not.  The timed end-to-end metrics are
   therefore CPU time, with wall time printed beside them. *)
let cpu_ms () =
  let t = Unix.times () in
  1000.0 *. (t.Unix.tms_utime +. t.Unix.tms_stime)

(* [f ()], its CPU time and its wall time, in ms. *)
let time_cpu f =
  let c0 = cpu_ms () and t0 = Spans.now_ns () in
  let r = f () in
  let t1 = Spans.now_ns () in
  let c1 = cpu_ms () in
  (r, c1 -. c0, float_of_int (t1 - t0) /. 1e6)

(* Whole rounds of the same operations: [min_rounds] always, then up
   to [max_rounds] while [budget] seconds are not spent.  [max_rounds]
   is the planned work; the budget only cuts it short on a slow host. *)
let rounds ~min_rounds ~max_rounds ~budget f =
  let t0 = now_s () in
  let r = ref 0 in
  while !r < min_rounds || (!r < max_rounds && now_s () -. t0 < budget) do
    f !r;
    incr r
  done

(* The CPU and wall times (ms) of every repeat of each operation of a
   round, by operation. *)
type samples = { cpu : float list array; wall : float list array }

let samples n = { cpu = Array.make n []; wall = Array.make n [] }

let add s k (c, w) =
  s.cpu.(k) <- c :: s.cpu.(k);
  s.wall.(k) <- w :: s.wall.(k)

let merge ss =
  let n = Array.length (List.hd ss).cpu in
  let m = samples n in
  List.iter
    (fun s ->
      for k = 0 to n - 1 do
        m.cpu.(k) <- s.cpu.(k) @ m.cpu.(k);
        m.wall.(k) <- s.wall.(k) @ m.wall.(k)
      done)
    ss;
  m

(* Set-up runs nine times, each from a collected heap with the
   previous result dropped; the last set-up's result is the one
   measured.  Returns it with the median CPU and wall time (s). *)
let repeated_setup f =
  let last = ref None and cpu = ref [] and wall = ref [] in
  for _ = 1 to 9 do
    last := None;
    Gc.full_major ();
    let r, c, w = time_cpu f in
    last := Some r;
    cpu := (c /. 1000.0) :: !cpu;
    wall := (w /. 1000.0) :: !wall
  done;
  (Option.get !last, (Stat.median !cpu, Stat.median !wall))

(* A round performs operation [k] [weights.(k)] times.  Each operation
   is reduced to the median time of all its repeats in the run; from
   those: throughput is a round's operations over the round's time, the
   median operation is the weighted median, and the slowest is the
   maximum.  Each figure is a fixed function of per-operation medians,
   so it keeps its meaning whatever the number of rounds, and one slow
   stretch of the host moves it little. *)
let summarize weights times =
  let m = Array.map Stat.median times in
  let ops = Array.fold_left ( + ) 0 weights in
  let round_ms = sum (Array.to_list (Array.mapi (fun k w -> float_of_int w *. m.(k)) weights)) in
  let order = List.sort (fun a b -> Float.compare m.(a) m.(b)) (List.init (Array.length m) Fun.id) in
  let rec wmedian cum = function
    | [] -> nan
    | k :: rest ->
        let cum = cum + weights.(k) in
        if 2 * cum >= ops then m.(k) else wmedian cum rest
  in
  (float_of_int ops /. (round_ms /. 1000.0), wmedian 0 order, Array.fold_left Float.max neg_infinity m)

let end_to_end ~setup:(setup_cpu, setup_wall) ~rss ~weights ~(s : samples) ~slots =
  let tp, p50, top = summarize weights s.cpu in
  let wtp, wp50, wtop = summarize weights s.wall in
  Printf.printf
    "set-up %.3f s CPU (%.3f s wall); %d operations per round: %.4g per CPU second (%.4g per \
     wall second), median %.4g ms CPU (%.4g wall), slowest %.4g ms CPU (%.4g wall)\n"
    setup_cpu setup_wall
    (Array.fold_left ( + ) 0 weights)
    tp wtp p50 wp50 top wtop;
  metric "setup_s" "s" setup_cpu;
  metric "peak_rss_mb" "MiB" rss;
  metric "ops_per_cpu_s" "1/s" tp;
  metric "op_cpu_p50_ms" "ms" p50;
  metric "slowest_op_cpu_ms" "ms" top;
  metric "mean_slots" "slots" (Stat.mean slots)

let check_plan label (inp : Inputs.input) (plan : Pipeline.plan) =
  if not plan.Pipeline.valid then error "%s: plan reports itself invalid" label;
  match Check.check_plan params inp.Inputs.ps plan with
  | Ok () -> ()
  | Error e -> error "%s: %s" label e

let same_summary (s : P.plan_summary) (plan : Pipeline.plan) =
  s.P.nodes = Wa_core.Agg_tree.size plan.Pipeline.agg
  && s.P.links = Wa_core.Agg_tree.link_count plan.Pipeline.agg
  && s.P.slots = Pipeline.slots plan
  && s.P.raw_colors = plan.Pipeline.raw_colors
  && s.P.repair_added = plan.Pipeline.repair_added
  && Bool.equal s.P.plan_valid plan.Pipeline.valid
  && Float.equal s.P.point_diversity plan.Pipeline.point_diversity
  && Float.equal s.P.link_diversity plan.Pipeline.link_diversity

let self_rss_mb () = Served.peak_rss_mb (Unix.getpid ())

(* The warm-up plan of the in-process set-up: one fixed uniform
   deployment of 2000 points, so every seed sets up the same work. *)
let warm_plan () =
  let ps =
    Wa_instances.Random_deploy.uniform_square (Wa_util.Rng.create 999) ~n:2000
      ~side:Inputs.side
  in
  ignore (Pipeline.plan ~params `Global ps)

(* Cold workloads: [Pipeline.plan] in-process ------------------------------ *)

let cold ~min_rounds ~max_rounds make_inputs =
  let inputs, setup =
    repeated_setup (fun () ->
        let inputs = make_inputs () in
        warm_plan ();
        inputs)
  in
  let n = List.length inputs in
  let first = Array.make n None in
  let s = samples n in
  let slots = ref [] and rss = ref nan in
  rounds ~min_rounds ~max_rounds ~budget:seconds (fun r ->
      List.iteri
        (fun k (inp : Inputs.input) ->
          incr attempted;
          (* Each plan starts from a collected heap: the previous plan's
             garbage neither bills its time nor moves the peak RSS. *)
          Gc.full_major ();
          match time_cpu (fun () -> Inputs.plan_of_spec inp.Inputs.spec inp.Inputs.ps) with
          | exception e ->
              incr failed;
              prerr_endline ("plan failed: " ^ Printexc.to_string e)
          | plan, cpu, wall -> (
              add s k (cpu, wall);
              slots := float_of_int (Pipeline.slots plan) :: !slots;
              match first.(k) with
              | None -> first.(k) <- Some plan
              | Some p0 ->
                  if p0.Pipeline.schedule.Schedule.slots <> plan.Pipeline.schedule.Schedule.slots
                  then error "input %d: plans differ between rounds" k))
        inputs;
      (* Peak RSS over set-up and one pass over the inputs: later
         rounds only add allocator fragmentation, which varies from
         run to run. *)
      if r = 0 then rss := self_rss_mb ());
  (* Every distinct plan is checked; later rounds were compared to it. *)
  List.iteri
    (fun k (inp : Inputs.input) ->
      Option.iter
        (fun plan ->
          Printf.printf "input %d: %-8s n=%-5d %-14s median %9.1f ms CPU, %9.1f ms wall, %d slots (%d raw)\n" k
            inp.Inputs.kind (Pointset.size inp.Inputs.ps)
            (P.power_to_string inp.Inputs.spec.P.power)
            (Stat.median s.cpu.(k)) (Stat.median s.wall.(k)) (Pipeline.slots plan)
            plan.Pipeline.raw_colors;
          check_plan (Printf.sprintf "input %d (%s)" k inp.Inputs.kind) inp plan)
        first.(k))
    inputs;
  end_to_end ~setup ~rss:!rss ~weights:(Array.make n 1) ~s ~slots:!slots

(* Served workloads: the server as its own process --------------------------- *)

let plan_reply line =
  match P.response_of_line line with
  | Ok { P.body = P.Plan_r s; _ } -> Some s
  | Ok _ | Error _ -> None

let start_server warm =
  let srv = Served.start !server_exe in
  match Served.connect srv.Served.port with
  | c -> (
      try
        let w = warm c in
        (srv, c, w)
      with e ->
        Served.stop srv c;
        raise e)
  | exception e ->
      Served.reap srv ~graceful:false;
      raise e

(* The in-process plan of each spec, verified by the independent
   checker: every served summary of that spec must equal it. *)
let reference_plans label specs =
  Array.of_list
    (List.mapi
       (fun k spec ->
         let inp = Inputs.input_of_spec (Inputs.kind_of_spec spec) spec in
         let plan = Inputs.plan_of_spec spec inp.Inputs.ps in
         check_plan (Printf.sprintf "%s %d (%s)" label k inp.Inputs.kind) inp plan;
         plan)
       specs)

let check_served label (refs : Pipeline.plan array) k (s : P.plan_summary) =
  if not (same_summary s refs.(k)) then
    error "%s spec %d: served summary differs from the in-process plan" label k

(* [served-cold] set-up: server start, the cache filled with 128 small
   distinct specs, one warm-up plan.  Every timed request then misses
   and evicts. *)
let fill_cache c =
  for k = 0 to 127 do
    ignore
      (Served.round_trip c
         (Inputs.plan_line ~id:(k + 1)
            (Inputs.generated "uniform" 40 (Inputs.sub seed 0 + 20_000_000 + k) `Global)))
  done;
  ignore
    (Served.round_trip c
       (Inputs.plan_line ~id:1
          (Inputs.generated "uniform" 2000 (Inputs.sub seed 0 + 20_001_000) `Global)))

let cold_specs = Array.of_list Inputs.served_cold

(* A round trip's CPU time is the client's (this process) plus the
   server's, read from [server_cpu] before and after it. *)
let time_served server_cpu f =
  let s0 = server_cpu () in
  let r, c, w = time_cpu f in
  (r, c +. server_cpu () -. s0, w)

(* One pass over [cold_specs] in the order of server [i], none of them
   seen by the server.  The server plans on worker domains and the
   threads the planner starts for itself exit within the request, so
   its CPU time is that of the whole process (to 10 ms).  Returns the
   times by spec, the queue samples (round trip minus the reply's
   compute time) and the replies by spec index. *)
let served_cold_pass i (srv : Served.server) c =
  let s = samples (Array.length cold_specs) and queue = ref [] and replies = ref [] in
  List.iter
    (fun k ->
      incr attempted;
      let line = Inputs.plan_line ~id:(k + 1) cold_specs.(k) in
      match
        time_served (fun () -> Served.process_cpu_ms srv.Served.pid) (fun () -> Served.round_trip c line)
      with
      | exception e ->
          incr failed;
          prerr_endline ("request failed: " ^ Printexc.to_string e)
      | reply, cpu, wall -> (
          match plan_reply reply with
          | None ->
              incr failed;
              prerr_endline ("unexpected reply: " ^ reply)
          | Some r ->
              add s k (cpu, wall);
              queue := (wall -. r.P.compute_ms) :: !queue;
              if r.P.cached then error "served-cold reply %d was cached" k;
              replies := (k, r) :: !replies))
    (Inputs.served_cold_order seed i);
  (s, !queue, List.rev !replies)

(* The served workloads measure [n] server processes in turn, each set
   up afresh: set-up time and peak RSS are medians over them, and their
   operation times are pooled, so one process settling into a slow heap
   state moves the result less.  Set-up CPU time is this process's
   during the set-up plus the server's whole life up to its end. *)
let on_servers ~n ~warm f =
  List.init n (fun i ->
      let (srv, c, w), cpu, wall = time_cpu (fun () -> start_server warm) in
      Fun.protect
        ~finally:(fun () -> Served.stop srv c)
        (fun () ->
          let setup = ((cpu +. Served.process_cpu_ms srv.Served.pid) /. 1000.0, wall /. 1000.0) in
          let v = f i srv c w in
          (setup, v, Served.peak_rss_mb srv.Served.pid)))

let served_end_to_end runs ~weights ~samples ~slots =
  List.iteri
    (fun i ((cpu, wall), v, rss) ->
      let _, p50, _ = summarize weights (samples v).cpu in
      Printf.printf
        "server %d: set-up %.3f s CPU (%.3f s wall), peak RSS %.1f MiB, median operation %.4g ms CPU\n"
        i cpu wall rss p50)
    runs;
  let median_of f = Stat.median (List.map f runs) in
  end_to_end
    ~setup:(median_of (fun ((c, _), _, _) -> c), median_of (fun ((_, w), _, _) -> w))
    ~rss:(median_of (fun (_, _, r) -> r))
    ~weights
    ~s:(merge (List.map (fun (_, v, _) -> samples v) runs))
    ~slots:(List.concat_map (fun (_, v, _) -> slots v) runs)

(* Every server plans the same specs, new to it, so every reply is
   compared with the same checked in-process plans. *)
let served_cold () =
  let runs = on_servers ~n:5 ~warm:fill_cache (fun i srv c () -> served_cold_pass i srv c) in
  let refs = reference_plans "served-cold spec" (Array.to_list cold_specs) in
  List.iteri
    (fun i (_, (_, _, replies), _) ->
      List.iter (fun (k, s) -> check_served (Printf.sprintf "served-cold server %d" i) refs k s) replies)
    runs;
  served_end_to_end runs
    ~weights:(Array.make (Array.length cold_specs) 1)
    ~samples:(fun (s, _, _) -> s)
    ~slots:(fun (_, _, r) -> List.map (fun (_, s) -> float_of_int s.P.slots) r)

(* [served-hot] set-up: server start, generation of the working set,
   each spec planned once (cache fill), one warm-up hit. *)
let warm_hot c =
  let specs = Inputs.hot_set seed in
  let lines = List.mapi (fun k s -> Inputs.plan_line ~id:(k + 1) s) specs in
  let firsts =
    List.map
      (fun line ->
        match plan_reply (Served.round_trip c line) with
        | Some s -> s
        | None -> failwith "served-hot warm-up: unexpected reply")
      lines
  in
  ignore (Served.round_trip c (List.hd lines));
  (specs, lines, firsts)

(* Rounds of [Inputs.hot_round] on each of [hot_servers] servers: 25
   at least, 50 planned. *)
let hot_servers = 8
let hot_min_rounds = 25
let hot_max_rounds = 50

(* How many times a round sends each spec of the working set. *)
let hot_weights =
  let w = Array.make (List.length (Inputs.hot_set 0)) 0 in
  List.iter (fun k -> w.(k) <- w.(k) + 1) Inputs.hot_round;
  w

(* A cache hit runs on the server's event loop and starts no thread,
   so the server's CPU time is that of its live threads, to the
   nanosecond.  Returns the times by spec, the slots of every reply and
   the first timed reply of each spec (later ones must repeat its
   bytes). *)
let served_hot_loop (srv : Served.server) c lines ~budget =
  let s = samples (List.length lines) and slots = ref [] in
  let lines = Array.of_list lines in
  let seen = Array.make (Array.length lines) None in
  rounds ~min_rounds:hot_min_rounds ~max_rounds:hot_max_rounds ~budget (fun _ ->
      List.iter
        (fun k ->
          incr attempted;
          match
            time_served (fun () -> Served.threads_cpu_ms srv.Served.pid) (fun () ->
                Served.round_trip c lines.(k))
          with
          | exception e ->
              incr failed;
              prerr_endline ("request failed: " ^ Printexc.to_string e)
          | reply, cpu, wall -> (
              add s k (cpu, wall);
              match seen.(k) with
              | Some (r, p) when String.equal r reply -> slots := float_of_int p.P.slots :: !slots
              | Some _ -> error "served-hot reply %d changed between rounds" k
              | None -> (
                  match plan_reply reply with
                  | Some p ->
                      if not p.P.cached then error "served-hot reply %d was not cached" k;
                      seen.(k) <- Some (reply, p);
                      slots := float_of_int p.P.slots :: !slots
                  | None ->
                      incr failed;
                      prerr_endline ("unexpected reply: " ^ reply))))
        Inputs.hot_round);
  (s, !slots, Array.map (Option.map snd) seen)

(* Every server's warm-up summaries and first timed replies are
   compared with the same checked in-process plans. *)
let served_hot () =
  let specs = Inputs.hot_set seed in
  let runs =
    on_servers ~n:hot_servers ~warm:warm_hot (fun _ srv c (_, lines, firsts) ->
        (served_hot_loop srv c lines ~budget:(seconds /. float_of_int hot_servers), firsts))
  in
  let refs = reference_plans "served-hot spec" specs in
  List.iteri
    (fun i (_, ((_, _, timed), firsts), _) ->
      let label = Printf.sprintf "served-hot server %d" i in
      List.iteri (check_served (label ^ " warm-up") refs) firsts;
      Array.iteri (fun k s -> Option.iter (check_served label refs k) s) timed)
    runs;
  served_end_to_end runs ~weights:hot_weights
    ~samples:(fun ((s, _, _), _) -> s)
    ~slots:(fun ((_, s, _), _) -> s)

(* Traced run ---------------------------------------------------------------- *)

let op_kind : (int, string) Hashtbl.t = Hashtbl.create 256
let op_counter = ref 0

let new_op kind =
  incr op_counter;
  Hashtbl.replace op_kind !op_counter kind;
  !op_counter

let spans_ms ?(kind = fun _ -> true) name =
  List.filter_map
    (fun (s : Spans.span) ->
      if String.equal s.Spans.name name && kind (Hashtbl.find op_kind s.Spans.op) then
        Some (float_of_int (Spans.dur s) /. 1e6)
      else None)
    (Spans.all ())

let is_line k = String.equal k "line"

let mode_of = function
  | `Global -> Wa_core.Greedy_schedule.Global_power
  | `Oblivious tau -> Wa_core.Greedy_schedule.Oblivious_power tau
  | `Uniform -> Wa_core.Greedy_schedule.Fixed_scheme Wa_sinr.Power.Uniform
  | `Linear -> Wa_core.Greedy_schedule.Fixed_scheme Wa_sinr.Power.Linear

(* [Pipeline.plan] replayed stage by stage, one span per stage.  Only
   what the caller needs outlives the call, as with [Pipeline.plan]: the
   conflict graph is dropped after coloring. *)
let replica ~op params power ps =
  let span name f = Spans.with_span ~op name f in
  span "plan.replica" @@ fun () ->
  let agg = span "agg_tree.mst" (fun () -> Wa_core.Agg_tree.mst ps) in
  let ls = agg.Wa_core.Agg_tree.links in
  let mode = mode_of power in
  let index =
    match Wa_core.Greedy_schedule.threshold_for mode with
    | Some _ -> Some (span "link_index.build" (fun () -> Wa_sinr.Link_index.build ls))
    | None -> None
  in
  let graph =
    span "conflict.graph" (fun () ->
        Wa_core.Greedy_schedule.conflict_graph ~engine:`Indexed ?index params ls mode)
  in
  let coloring =
    span "coloring.greedy" (fun () ->
        Wa_graph.Coloring.greedy ~order:(Linkset.by_decreasing_length ls) graph)
  in
  let edges = Wa_graph.Graph.edge_count graph in
  let raw =
    Schedule.of_coloring coloring
      (match mode with
      | Wa_core.Greedy_schedule.Global_power -> Schedule.Arbitrary
      | Wa_core.Greedy_schedule.Oblivious_power tau -> Schedule.Scheme (Wa_sinr.Power.Oblivious tau)
      | Wa_core.Greedy_schedule.Fixed_scheme s -> Schedule.Scheme s)
  in
  let schedule, added, _ =
    span "schedule.repair_validated" (fun () -> Schedule.repair_validated params ls raw)
  in
  span "plan.diversity" (fun () ->
      ignore (Linkset.diversity ls);
      ignore (Pointset.max_pairwise_distance ps /. Linkset.min_length ls));
  (ls, edges, raw, schedule.Schedule.slots, added)

type gc_acc = { mutable minor_words : float; mutable majors : int; mutable ops : int }

let gc_acc () = { minor_words = 0.0; majors = 0; ops = 0 }

let gc_measure acc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  acc.minor_words <- acc.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  acc.majors <- acc.majors + (g1.Gc.major_collections - g0.Gc.major_collections);
  acc.ops <- acc.ops + 1;
  r

let gc_metrics acc =
  let ops = float_of_int (max 1 acc.ops) in
  metric "gc.minor_mb_per_op" "MiB" (acc.minor_words *. 8.0 /. 1048576.0 /. ops);
  metric "gc.major_per_op" "count" (float_of_int acc.majors /. ops)

(* Untraced [Pipeline.plan] and the traced stage replica on every
   input, each from a freshly collected heap and in alternating order,
   so that neither inherits the other's garbage.  The two are compared
   once, after the last round, on their mean time per round (a pass
   over every input): each plan is timed right beside its replica, so a
   slow stretch of the host bills both, and single plans vary by up to
   a third between repeats, so three rounds always run, and up to six
   while [budget] lasts.
   Only the slot partition of either result is kept past its call, so
   neither run carries the other's heap.  Returns the GC figures of the
   untraced plans. *)
let replica_section ~budget (inputs : Inputs.input list) =
  let gc = gc_acc () in
  let n_inputs = List.length inputs in
  let plan_ms = Array.make n_inputs [] and replica_ops = Array.make n_inputs [] in
  let counts = ref [] in
  let round r =
    List.iteri
      (fun k (inp : Inputs.input) ->
        incr attempted;
        let spec = inp.Inputs.spec in
        let untraced () =
          Gc.full_major ();
          let plan, ms =
            gc_measure gc (fun () -> time_ms (fun () -> Inputs.plan_of_spec spec inp.Inputs.ps))
          in
          plan_ms.(k) <- ms :: plan_ms.(k);
          plan.Pipeline.schedule.Schedule.slots
        in
        let op = new_op inp.Inputs.kind in
        replica_ops.(k) <- op :: replica_ops.(k);
        let traced () =
          Gc.full_major ();
          replica ~op params spec.P.power inp.Inputs.ps
        in
        let plan_slots, (ls, edges, raw, slots, added) =
          if (k + r) mod 2 = 0 then
            let p = untraced () in
            (p, traced ())
          else
            let t = traced () in
            (untraced (), t)
        in
        if slots <> plan_slots then
          error "stage replica and Pipeline.plan differ on a %s input" inp.Inputs.kind;
        let pairs =
          Array.fold_left
            (fun a s -> let k = float_of_int (List.length s) in a +. (k *. k))
            0.0 raw.Schedule.slots
        in
        counts :=
          ( float_of_int edges,
            float_of_int (Schedule.length raw),
            float_of_int added,
            pairs )
          :: !counts;
        if r = 0 then
          ignore
            (Spans.with_span ~op "refinement.pressure" (fun () ->
                 Wa_core.Refinement.longer_pressure params ls)))
      inputs
  in
  let n_rounds = ref 0 in
  rounds ~min_rounds:3 ~max_rounds:6 ~budget (fun r ->
      round r;
      incr n_rounds);
  let self_ms = Spans.subtree_self_ms "plan.replica" in
  List.iteri
    (fun k (inp : Inputs.input) ->
      let show = List.rev_map (Printf.sprintf "%.1f") in
      Printf.printf "replica input %d (%s, n=%d): Pipeline.plan %s ms, replica %s ms\n" k
        inp.Inputs.kind (Pointset.size inp.Inputs.ps)
        (String.concat "/" (show plan_ms.(k)))
        (String.concat "/" (show (List.map (Hashtbl.find self_ms) replica_ops.(k)))))
    inputs;
  let per_round xs = sum xs /. float_of_int !n_rounds in
  let plan_ms = per_round (List.concat (Array.to_list plan_ms)) in
  let replica_ms =
    per_round (List.concat_map (List.map (Hashtbl.find self_ms)) (Array.to_list replica_ops))
  in
  let overhead = 100.0 *. (replica_ms -. plan_ms) /. plan_ms in
  Printf.printf
    "stage replica: summed self time %.1f ms per round; untraced Pipeline.plan %.1f ms per round (%d rounds); tracing overhead %+.2f%%\n"
    replica_ms plan_ms !n_rounds overhead;
  if Float.abs (replica_ms -. plan_ms) > 0.1 *. plan_ms then
    error "stage replica self time %.1f ms is not within 10%% of Pipeline.plan %.1f ms"
      replica_ms plan_ms;
  metric "trace.plan_ms" "ms" plan_ms;
  metric "trace.replica_ms" "ms" replica_ms;
  metric "trace.overhead_pct" "%" overhead;
  let col f = List.map f !counts in
  metric "conflict.edges" "count" (Stat.mean (col (fun (e, _, _, _) -> e)));
  metric "coloring.raw_colors" "count" (Stat.mean (col (fun (_, c, _, _) -> c)));
  metric "schedule.repair_added" "count" (Stat.mean (col (fun (_, _, a, _) -> a)));
  metric "schedule.validate_ns_per_pair" "ns"
    (sum (spans_ms "schedule.repair_validated") *. 1e6 /. sum (col (fun (_, _, _, p) -> p)));
  let not_line k = not (is_line k) in
  metric "agg_tree.mst_ms" "ms" (Stat.mean (spans_ms ~kind:not_line "agg_tree.mst"));
  if List.is_empty (spans_ms ~kind:is_line "agg_tree.mst") then begin
    (* No collinear input in this workload: time the MST of a seeded
       line of 1000 points. *)
    let ps =
      Wa_instances.Random_deploy.uniform_line (Wa_util.Rng.create (Inputs.sub seed 998))
        ~n:1000 ~length:Inputs.side
    in
    let op = new_op "line" in
    ignore (Spans.with_span ~op "agg_tree.mst" (fun () -> Wa_core.Agg_tree.mst ps))
  end;
  metric "agg_tree.mst_collinear_ms" "ms" (Stat.mean (spans_ms ~kind:is_line "agg_tree.mst"));
  metric "link_index.build_ms" "ms" (Stat.mean (spans_ms "link_index.build"));
  metric "conflict.graph_ms" "ms" (Stat.mean (spans_ms "conflict.graph"));
  metric "coloring.greedy_ms" "ms" (Stat.mean (spans_ms "coloring.greedy"));
  metric "schedule.validate_ms" "ms" (Stat.mean (spans_ms "schedule.repair_validated"));
  metric "refinement.pressure_ms" "ms" (Stat.mean (spans_ms "refinement.pressure"));
  gc

(* [Engine.handle] on fresh specs with telemetry off and on, on two
   engines; returns the warm telemetry-off engine and the GC figures
   of the telemetry-on handles (what the server runs). *)
let obs_section specs =
  let e_off = Engine.create () and e_on = Engine.create () in
  let gc = gc_acc () in
  List.iteri
    (fun k spec ->
      incr attempted;
      let op = new_op (Inputs.kind_of_spec spec) in
      let off () =
        Spans.with_span ~op "engine.handle.telemetry_off" (fun () -> Engine.handle e_off (P.Plan spec))
      in
      let on () =
        gc_measure gc (fun () ->
            Spans.with_span ~op "engine.handle.telemetry_on" (fun () ->
                Wa_obs.with_enabled (fun () -> Engine.handle e_on (P.Plan spec))))
      in
      let a, b =
        if k mod 2 = 0 then
          let a = off () in
          (a, on ())
        else
          let b = on () in
          (off (), b)
      in
      Wa_obs.reset ();
      match (a, b) with
      | P.Plan_r x, P.Plan_r y when x.P.slots = y.P.slots -> ()
      | _ -> error "Engine.handle with telemetry on and off disagree")
    specs;
  metric "obs.overhead_ms" "ms"
    (Stat.mean (spans_ms "engine.handle.telemetry_on")
    -. Stat.mean (spans_ms "engine.handle.telemetry_off"));
  (e_off, gc)

(* Decode, key, cache hit and encode of the request lines of [specs],
   in-process against the warm engine [e]. *)
let engine_section e specs ~budget =
  let gc = gc_acc () in
  let lines = List.mapi (fun k s -> Inputs.plan_line ~id:(k + 1) s) specs in
  let replies =
    List.map (fun s -> P.response_to_line { P.rid = 1; body = Engine.handle e (P.Plan s); rtrace = None }) specs
  in
  let responses = List.filter_map (fun l -> Result.to_option (P.response_of_line l)) replies in
  rounds ~min_rounds:1 ~max_rounds:max_int ~budget (fun _ ->
      List.iter2
        (fun line resp ->
          incr attempted;
          let op = new_op "request" in
          let span name f = Spans.with_span ~op name f in
          gc_measure gc (fun () ->
              match span "protocol.decode" (fun () -> P.request_of_line line) with
              | Ok { P.body = P.Plan spec; id; _ } ->
                  ignore (span "engine.key" (fun () -> Engine.spec_key spec));
                  if Option.is_none (span "engine.hit" (fun () -> Engine.cached_plan_line e spec ~id))
                  then error "in-process replay missed the cache";
                  ignore (span "protocol.encode" (fun () -> P.response_to_line resp))
              | _ -> error "in-process replay could not decode a request"))
        lines responses);
  let us name = 1000.0 *. Stat.mean (spans_ms name) in
  metric "protocol.decode_us" "us" (us "protocol.decode");
  metric "protocol.encode_us" "us" (us "protocol.encode");
  metric "engine.key_us" "us" (us "engine.key");
  metric "engine.hit_us" "us" (us "engine.hit");
  let bytes l = Stat.mean (List.map (fun s -> float_of_int (String.length s)) l) in
  metric "protocol.request_bytes" "bytes" (bytes lines);
  metric "protocol.response_bytes" "bytes" (bytes replies);
  gc

let cache_metrics (a : P.cache_summary) (b : P.cache_summary) =
  let hits = b.P.cs_hits - a.P.cs_hits and misses = b.P.cs_misses - a.P.cs_misses in
  metric "cache.hits" "count" (float_of_int hits);
  metric "cache.misses" "count" (float_of_int misses);
  metric "cache.evictions" "count" (float_of_int (b.P.cs_evictions - a.P.cs_evictions));
  metric "cache.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)))

(* Round trips of one cached short spec, against the in-process
   decode and hit of the same line: the rest is the wire and the
   event loop.  (A hit is answered from a memoized line, so no encode
   is on its path.) *)
let wire_probe c =
  let spec = Inputs.generated "uniform" 300 (Inputs.sub seed 997) `Global in
  let line = Inputs.plan_line ~id:1 spec in
  ignore (Served.round_trip c line);
  let op = new_op "probe" in
  for _ = 1 to 300 do
    ignore (Spans.with_span ~op "client.round_trip" (fun () -> Served.round_trip c line))
  done;
  let e = Engine.create () in
  ignore (Engine.handle e (P.Plan spec));
  for _ = 1 to 300 do
    match Spans.with_span ~op "probe.decode" (fun () -> P.request_of_line line) with
    | Ok { P.body = P.Plan s; id; _ } ->
        ignore (Spans.with_span ~op "probe.hit" (fun () -> Engine.cached_plan_line e s ~id))
    | _ -> error "probe line does not decode"
  done;
  let med name = Stat.median (spans_ms name) in
  metric "server.wire_us" "us"
    (1000.0 *. (med "client.round_trip" -. med "probe.decode" -. med "probe.hit"))

let queue_metric samples = metric "server.queue_ms" "ms" (Stat.median samples)

(* Cold requests of [specs]: round trip minus the reply's compute time. *)
let queue_probe c specs =
  List.filter_map
    (fun spec ->
      let reply, ms = time_ms (fun () -> Served.round_trip c (Inputs.plan_line ~id:1 spec)) in
      Option.map (fun s -> ms -. s.P.compute_ms) (plan_reply reply))
    specs

let forkjoin_probe () =
  let op = new_op "probe" in
  for _ = 1 to 200 do
    Spans.with_span ~op "parallel.iter" (fun () -> Wa_util.Parallel.iter 4096 (fun _ -> ()))
  done;
  metric "parallel.forkjoin_us" "us" (1000.0 *. Stat.median (spans_ms "parallel.iter"))

(* The service layers for a workload without a server of its own: a
   server started for the probe, cold requests, then cached ones. *)
let service_probe () =
  let specs = Inputs.probe seed in
  let srv, c, () = start_server ignore in
  Fun.protect
    ~finally:(fun () -> Served.stop srv c)
    (fun () ->
      let a = Served.cache_stats c in
      queue_metric (queue_probe c specs);
      wire_probe c;
      cache_metrics a (Served.cache_stats c))

let traced_cold inputs =
  let gc = replica_section ~budget:(seconds /. 2.0) inputs in
  gc_metrics gc;
  let specs = Inputs.probe seed in
  let e, _ = obs_section specs in
  ignore (engine_section e specs ~budget:1.0);
  service_probe ();
  forkjoin_probe ()

let traced_served_cold () =
  let srv, c, () = start_server fill_cache in
  let _, queue, _ =
    Fun.protect
      ~finally:(fun () -> Served.stop srv c)
      (fun () ->
        let a = Served.cache_stats c in
        let pass = served_cold_pass 0 srv c in
        cache_metrics a (Served.cache_stats c);
        wire_probe c;
        pass)
  in
  queue_metric queue;
  let specs = Array.to_list cold_specs in
  let inputs = List.map (fun s -> Inputs.input_of_spec (Inputs.kind_of_spec s) s) specs in
  ignore (replica_section ~budget:0.0 inputs);
  let e, gc = obs_section specs in
  gc_metrics gc;
  ignore (engine_section e specs ~budget:1.0);
  forkjoin_probe ()

let traced_served_hot () =
  let srv, c, (specs, lines, _) = start_server warm_hot in
  Fun.protect
    ~finally:(fun () -> Served.stop srv c)
    (fun () ->
      let a = Served.cache_stats c in
      ignore (served_hot_loop srv c lines ~budget:(seconds /. 2.0));
      cache_metrics a (Served.cache_stats c);
      wire_probe c;
      queue_metric (queue_probe c (Inputs.probe seed)));
  let inputs = List.map (fun s -> Inputs.input_of_spec (Inputs.kind_of_spec s) s) specs in
  ignore (replica_section ~budget:0.0 inputs);
  let e, _ = obs_section specs in
  gc_metrics (engine_section e specs ~budget:(seconds /. 4.0));
  forkjoin_probe ()

(* Output -------------------------------------------------------------------- *)

let print_result () =
  let correct = !errors = 0 in
  let ms = List.rev !metrics in
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %14.6g %s\n" name v unit) ms;
  let correct = correct && List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite v then v else 0.0)
          unit)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " fields)

let () =
  (match Check.self_test seed with Ok () -> () | Error e -> error "%s" e);
  let traced = !trace <> 0 in
  (match (!workload, traced) with
  (* [cold-batch] plans five to seven rounds of 11, as many as the
     run's time allows; [cold-large] always plans two rounds of 4. *)
  | "cold-batch", false -> cold ~min_rounds:5 ~max_rounds:7 (fun () -> Inputs.batch seed)
  | "cold-large", false -> cold ~min_rounds:2 ~max_rounds:2 (fun () -> Inputs.large seed)
  | "served-cold", false -> served_cold ()
  | "served-hot", false -> served_hot ()
  | "cold-batch", true -> traced_cold (Inputs.batch seed)
  | "cold-large", true -> traced_cold (Inputs.large seed)
  | "served-cold", true -> traced_served_cold ()
  | "served-hot", true -> traced_served_hot ()
  | w, _ ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2);
  if traced && !out_dir <> "" then
    Spans.write (Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload seed));
  print_result ()
