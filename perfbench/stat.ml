(* Order statistics over timing samples: [Wa_util.Stats], with nan for
   an empty sample (a missing figure then marks the run incorrect
   instead of aborting it). *)

let nonempty f = function [] -> nan | xs -> f xs
let median = nonempty Wa_util.Stats.median
let mean = nonempty Wa_util.Stats.mean
