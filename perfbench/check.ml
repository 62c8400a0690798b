(* Output checker, independent of the library's own validation: the
   tree weight against an O(n²) Prim MST computed here, the slot
   partition, and SINR >= beta for every link of every slot, with the
   geometry rebuilt from the input coordinates and the interference
   sums computed here.  Only the power vector comes from the library
   ([Schedule.witness_power] in the arbitrary-power regime, where a
   plan carries no powers of its own). *)

module Pipeline = Wa_core.Pipeline
module Schedule = Wa_core.Schedule
module Pointset = Wa_geom.Pointset
module Vec2 = Wa_geom.Vec2

let coords ps =
  let n = Pointset.size ps in
  ( Array.init n (fun i -> (Pointset.get ps i).Vec2.x),
    Array.init n (fun i -> (Pointset.get ps i).Vec2.y) )

let prim_weight ps =
  let xs, ys = coords ps in
  let n = Array.length xs in
  let key = Array.make n infinity in
  let done_ = Array.make n false in
  let total = ref 0.0 in
  let u = ref 0 in
  key.(0) <- 0.0;
  for _ = 1 to n do
    let x = xs.(!u) and y = ys.(!u) in
    done_.(!u) <- true;
    total := !total +. sqrt key.(!u);
    let best = ref (-1) and best_key = ref infinity in
    for v = 0 to n - 1 do
      if not done_.(v) then begin
        let dx = xs.(v) -. x and dy = ys.(v) -. y in
        let d2 = (dx *. dx) +. (dy *. dy) in
        if d2 < key.(v) then key.(v) <- d2;
        if key.(v) < !best_key then begin
          best_key := key.(v);
          best := v
        end
      end
    done;
    if !best >= 0 then u := !best
  done;
  !total

let rec find uf i = if uf.(i) = i then i else begin
    let r = find uf uf.(i) in
    uf.(i) <- r;
    r
  end

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

(* Parent of every node (sink: -1), checked to form a spanning tree;
   returns the tree weight. *)
let check_tree ps (plan : Pipeline.plan) =
  let n = Pointset.size ps in
  let tree = plan.Pipeline.agg.Wa_core.Agg_tree.tree in
  if Wa_graph.Tree.size tree <> n then fail "tree has %d nodes, input %d" (Wa_graph.Tree.size tree) n
  else begin
    let xs, ys = coords ps in
    let uf = Array.init n Fun.id in
    let parent = Array.make n (-1) in
    let weight = ref 0.0 and edges = ref 0 and cycle = ref false in
    for v = 0 to n - 1 do
      match Wa_graph.Tree.parent tree v with
      | None -> ()
      | Some p ->
          parent.(v) <- p;
          incr edges;
          let a = find uf v and b = find uf p in
          if a = b then cycle := true else uf.(a) <- b;
          let dx = xs.(v) -. xs.(p) and dy = ys.(v) -. ys.(p) in
          weight := !weight +. sqrt ((dx *. dx) +. (dy *. dy))
    done;
    if !cycle || !edges <> n - 1 then fail "tree is not spanning (%d edges)" !edges
    else Ok (parent, !weight)
  end

let check_partition ~links (schedule : Schedule.t) =
  let seen = Array.make links 0 in
  let bad = ref None in
  Array.iter
    (List.iter (fun l ->
         if l < 0 || l >= links then bad := Some l else seen.(l) <- seen.(l) + 1))
    schedule.Schedule.slots;
  match !bad with
  | Some l -> fail "slot holds unknown link %d" l
  | None -> (
      match Array.find_index (fun c -> c <> 1) seen with
      | Some l -> fail "link %d lies in %d slots" l seen.(l)
      | None -> Ok ())

(* SINR of every link in its slot, from coordinates, alpha, beta and
   noise; [power] indexed by link id. *)
let check_sinr (params : Wa_sinr.Params.t) ~sx ~sy ~rx ~ry ~power (schedule : Schedule.t) =
  let alpha = params.Wa_sinr.Params.alpha in
  let pow d2 =
    if Float.equal alpha 3.0 then d2 *. sqrt d2 else Float.pow d2 (alpha /. 2.0)
  in
  let beta = params.Wa_sinr.Params.beta *. (1.0 -. 1e-9) in
  let noise = params.Wa_sinr.Params.noise in
  let worst = ref None in
  Array.iteri
    (fun k slot ->
      let ids = Array.of_list slot in
      Array.iter
        (fun i ->
          let ldx = sx.(i) -. rx.(i) and ldy = sy.(i) -. ry.(i) in
          let signal = power.(i) /. pow ((ldx *. ldx) +. (ldy *. ldy)) in
          let interference = ref 0.0 in
          Array.iter
            (fun j ->
              if j <> i then begin
                let dx = sx.(j) -. rx.(i) and dy = sy.(j) -. ry.(i) in
                let d2 = (dx *. dx) +. (dy *. dy) in
                interference :=
                  !interference +. (if d2 > 0.0 then power.(j) /. pow d2 else infinity)
              end)
            ids;
          let sinr = signal /. (noise +. !interference) in
          if (not (sinr >= beta)) && Option.is_none !worst then worst := Some (k, i, sinr))
        ids)
    schedule.Schedule.slots;
  match !worst with
  | Some (k, i, sinr) -> fail "slot %d: link %d has SINR %g < beta" k i sinr
  | None -> Ok ()

let check_plan params ps (plan : Pipeline.plan) =
  let n = Pointset.size ps in
  let* parent, weight = check_tree ps plan in
  let prim = prim_weight ps in
  let* () =
    if Float.abs (weight -. prim) <= 1e-9 *. Float.max 1.0 prim then Ok ()
    else fail "tree weight %.17g differs from the MST weight %.17g" weight prim
  in
  let ls = plan.Pipeline.agg.Wa_core.Agg_tree.links in
  let links = Wa_sinr.Linkset.size ls in
  let* () = if links = n - 1 then Ok () else fail "%d links for %d nodes" links n in
  let* () = check_partition ~links plan.Pipeline.schedule in
  (* Rebuild each link's endpoints from the input: sender = child,
     receiver = its parent. *)
  let xs, ys = coords ps in
  let child = Array.make links (-1) in
  let* () =
    let bad = ref None in
    for l = 0 to links - 1 do
      match Wa_sinr.Linkset.tree_child ls l with
      | Some v when v >= 0 && v < n && parent.(v) >= 0 -> child.(l) <- v
      | _ -> bad := Some l
    done;
    match !bad with Some l -> fail "link %d has no tree child" l | None -> Ok ()
  in
  let sx = Array.map (fun v -> xs.(v)) child and sy = Array.map (fun v -> ys.(v)) child in
  let rx = Array.map (fun v -> xs.(parent.(v))) child
  and ry = Array.map (fun v -> ys.(parent.(v))) child in
  let* scheme =
    match plan.Pipeline.schedule.Schedule.power_mode with
    | Schedule.Scheme s -> Ok s
    | Schedule.Arbitrary -> (
        match Schedule.witness_power params ls plan.Pipeline.schedule with
        | Some s -> Ok s
        | None -> fail "no power assignment witnesses the schedule")
  in
  let power = Wa_sinr.Power.vector params ls scheme in
  check_sinr params ~sx ~sy ~rx ~ry ~power plan.Pipeline.schedule

(* The checker must reject corrupted plans.  Three corruptions of a
   small plan: two slots merged (those of a link and of its parent's
   link, which share a node, so one receiver hears a sender at distance
   zero); a link placed in two slots; a schedule over a star instead of
   the MST. *)
let self_test seed =
  let params = Wa_sinr.Params.default in
  let ps = Wa_instances.Random_deploy.uniform_square (Wa_util.Rng.create seed) ~n:300 ~side:1000.0 in
  let power = `Oblivious 0.5 in
  let plan = Pipeline.plan ~params power ps in
  let agg = plan.Pipeline.agg in
  let slots = plan.Pipeline.schedule.Schedule.slots in
  let with_slots s = { plan with Pipeline.schedule = { plan.Pipeline.schedule with Schedule.slots = s } } in
  let tree = agg.Wa_core.Agg_tree.tree in
  let sink = Wa_graph.Tree.sink tree in
  let v =
    let rec go v =
      match Wa_graph.Tree.parent tree v with
      | Some p when p <> sink -> v
      | _ -> go (v + 1)
    in
    go 0
  in
  let p = Option.get (Wa_graph.Tree.parent tree v) in
  let slot_of n = Schedule.slot_of_link plan.Pipeline.schedule (Wa_core.Agg_tree.link_of_node agg n) in
  let a = slot_of v and b = slot_of p in
  let merged =
    Array.of_list
      (List.filteri (fun k _ -> k <> b)
         (Array.to_list (Array.mapi (fun k s -> if k = a then s @ slots.(b) else s) slots)))
  in
  let duplicated =
    Array.mapi (fun k s -> if k = b then List.hd slots.(a) :: s else s) slots
  in
  let star =
    Pipeline.plan ~params
      ~tree_edges:(List.init (Pointset.size ps - 1) (fun i -> (0, i + 1)))
      power ps
  in
  let rejects name p =
    match check_plan params ps p with
    | Ok () -> fail "self-test: the checker accepted a plan with %s" name
    | Error _ -> Ok ()
  in
  let* () =
    match check_plan params ps plan with
    | Ok () -> Ok ()
    | Error e -> fail "self-test: the checker rejected a sound plan: %s" e
  in
  let* () = rejects "two slots merged" (with_slots merged) in
  let* () = rejects "a link in two slots" (with_slots duplicated) in
  rejects "a star tree" star
