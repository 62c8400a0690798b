(* Workload inputs, all derived from the workload seed.  The program
   only ever sees the generated pointsets or request lines. *)

module P = Wa_service.Protocol
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2

let side = 1000.0
let params = Wa_sinr.Params.make ~alpha:3.0 ~beta:1.0 ()

let spec deploy power =
  { P.deploy; power; alpha = 3.0; beta = 1.0; gamma = None; engine = `Indexed; no_cache = false }

let generated kind n seed power = spec (P.Generate { kind; n; seed; side }) power

(* One plan input: the spec the server would receive and the pointset
   the library is handed. *)
type input = { kind : string; spec : P.plan_spec; ps : Pointset.t }

let input_of_spec kind spec = { kind; spec; ps = Wa_service.Engine.pointset_of_spec spec }

let plan_line ~id spec =
  P.request_to_line { P.id; deadline_ms = None; trace = false; body = P.Plan spec }

(* Make-up of [cold-batch] and [served-cold]: uniform, disk, clusters
   and a collinear line, under the two regimes of the paper and one
   fixed scheme, at n = 1000..3000.  Sorted by time, the eleven plans
   fall into three bands: seven under the two regimes, two under the
   fixed scheme, which repair splits heavily, and two on the line,
   whose MST takes the quadratic fallback.  The median plan lies inside
   the first band and the slowest is a line plan. *)
let batch_makeup =
  [
    ("uniform", 2000, `Global);
    ("disk", 2000, `Global);
    ("disk", 2500, `Global);
    ("clusters", 3000, `Global);
    ("uniform", 2500, `Oblivious 0.5);
    ("disk", 3000, `Oblivious 0.5);
    ("clusters", 2000, `Oblivious 0.5);
    ("uniform", 1500, `Uniform);
    ("clusters", 1500, `Uniform);
    ("line", 1000, `Global);
    ("line", 1000, `Oblivious 0.5);
  ]

(* Deployment seeds stay below 2^30 whatever the workload seed. *)
let sub seed k = ((seed land 0xfffff) * 1000) + k

(* The in-process workloads plan fixed deployments, each placed in a
   frame chosen by the workload seed: one of the eight symmetries of
   the square, a power-of-two scale, a translation, and a relabelling
   of the non-sink nodes.  SINR feasibility is invariant under all of
   these, so every seed measures the same work on different
   coordinates and labels.  The symmetries and scales are exact in
   floating point, so a collinear deployment stays exactly collinear. *)
let reframe seed k ps =
  let rng = Wa_util.Rng.create (sub seed (500 + k)) in
  let sym = Wa_util.Rng.int rng 8 in
  let scale = Float.ldexp 1.0 (Wa_util.Rng.int rng 5 - 2) in
  let tx = Wa_util.Rng.float_range rng (-5000.0) 5000.0 in
  let ty = Wa_util.Rng.float_range rng (-5000.0) 5000.0 in
  let pts = Array.copy (Pointset.points ps) in
  for i = Array.length pts - 1 downto 2 do
    let j = 1 + Wa_util.Rng.int rng i in
    let t = pts.(i) in
    pts.(i) <- pts.(j);
    pts.(j) <- t
  done;
  Pointset.of_array
    (Array.map
       (fun { Vec2.x; y } ->
         let x, y = if sym land 4 <> 0 then (y, x) else (x, y) in
         let x = if sym land 1 <> 0 then -.x else x in
         let y = if sym land 2 <> 0 then -.y else y in
         Vec2.make ((scale *. x) +. tx) ((scale *. y) +. ty))
       pts)

let reframed seed k (kind, n, base, power) =
  let ps = reframe seed k (Wa_service.Engine.pointset_of_spec (generated kind n base power)) in
  { kind; spec = spec (P.Points (Pointset.points ps)) power; ps }

let batch seed =
  List.mapi
    (fun k (kind, n, power) -> reframed seed k (kind, n, 1000 + k, power))
    batch_makeup

(* The timed requests of [served-cold]: the deployments of [cold-batch]
   (generator seeds 1000-1010) as generated specs.  Each server process
   is new, so every request is one it has not seen; and as on
   [cold-batch], every seed measures the same planning work.  The
   workload seed chooses the order in which server [i] receives them
   ([served_cold_order]): the order moves the server's peak RSS, and
   the median over servers then pools several orders. *)
let served_cold =
  List.mapi (fun k (kind, n, power) -> generated kind n (1000 + k) power) batch_makeup

let served_cold_order seed i =
  let order = Array.init (List.length batch_makeup) Fun.id in
  let rng = Wa_util.Rng.create (sub seed (400 + i)) in
  for j = Array.length order - 1 downto 1 do
    let r = Wa_util.Rng.int rng (j + 1) in
    let t = order.(j) in
    order.(j) <- order.(r);
    order.(r) <- t
  done;
  Array.to_list order

(* [cold-large]: four n = 10000 uniform deployments.  The first,
   generated with seed 42, is the known instance whose raw coloring
   has one infeasible slot (k ≈ 2.2k links) that repair must split; the
   other three (seeds 43-45) validate without repair, so the median
   pools three deployments. *)
let large seed =
  List.mapi
    (fun k base -> reframed seed (100 + k) ("uniform", 10000, base, `Global))
    [ 42; 43; 44; 45 ]

(* Small fresh specs for the layer probes of the traced run. *)
let probe seed =
  List.mapi
    (fun k kind -> generated kind 2000 (sub seed (900 + k)) `Global)
    [ "uniform"; "disk"; "clusters" ]

(* [served-hot] working set: fourteen short generated specs (four
   families under three modes, plus two) and two inline specs of 2000
   points (~80 KB lines).  The short specs use fixed generator seeds;
   the inline ones are fixed deployments placed in a frame chosen by
   the workload seed, as for the in-process workloads. *)
let hot_set seed =
  let short =
    List.concat
      (List.mapi
         (fun f (kind, n) ->
           List.mapi
             (fun m power -> generated kind n (2000 + (3 * f) + m) power)
             [ `Global; `Oblivious 0.5; `Uniform ])
         [ ("uniform", 400); ("disk", 500); ("clusters", 600); ("line", 500) ])
    @ [ generated "uniform" 300 2020 `Global; generated "disk" 300 2021 (`Oblivious 0.5) ]
  in
  let inline =
    List.mapi
      (fun k (kind, power) -> (reframed seed (200 + k) (kind, 2000, 2100 + k, power)).spec)
      [ ("uniform", `Global); ("clusters", `Oblivious 0.5) ]
  in
  short @ inline

(* One round of [served-hot], as indices into [hot_set]: the fourteen
   short specs three times over, with one inline request after each
   half, so 2 of 44 requests (4.5%) are inline.  The weighted median
   operation is then a short request, and the slowest is an inline
   hit. *)
let hot_round =
  let short = List.concat (List.init 3 (fun _ -> List.init 14 Fun.id)) in
  List.filteri (fun j _ -> j < 21) short @ [ 14 ] @ List.filteri (fun j _ -> j >= 21) short @ [ 15 ]

let kind_of_spec (s : P.plan_spec) =
  match s.P.deploy with P.Generate { kind; _ } -> kind | P.Points _ -> "inline"

(* The in-process plan of a spec, as the server computes it. *)
let plan_of_spec (s : P.plan_spec) ps =
  Wa_core.Pipeline.plan ~params:(Wa_sinr.Params.make ~alpha:s.P.alpha ~beta:s.P.beta ())
    ?gamma:s.P.gamma ~engine:s.P.engine s.P.power ps
