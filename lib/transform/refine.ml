open Semantics.Sem_value

type verdict = Equal | Refines | Refined_by | Incomparable

let pp_verdict ppf = function
  | Equal -> Fmt.string ppf "identity"
  | Refines -> Fmt.string ppf "refinement"
  | Refined_by -> Fmt.string ppf "anti-refinement"
  | Incomparable -> Fmt.string ppf "invalid"

let verdict_equal (a : verdict) b = a = b

let compare_deep da db =
  let le = deep_leq da db and ge = deep_leq db da in
  match (le, ge) with
  | true, true -> Equal
  | true, false -> Refines
  | false, true -> Refined_by
  | false, false -> Incomparable

let compare_denot ?config ?depth a b =
  let da = Semantics.Denot.run_deep ?config ?depth a in
  let db = Semantics.Denot.run_deep ?config ?depth b in
  compare_deep da db

let implements_deep = Semantics.Refine.implements_deep
