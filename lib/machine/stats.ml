type t = {
  mutable steps : int;
  mutable allocations : int;
  mutable updates : int;
  mutable max_stack : int;
  mutable frames_trimmed : int;
  mutable thunks_poisoned : int;
  mutable thunks_paused : int;
  mutable catches : int;
  mutable collections : int;
  mutable live_copied : int;
  mutable async_delivered : int;
  mutable heap_overflows : int;
  mutable stack_overflows : int;
  mutable bc_dispatches : int;
  mutable ic_hits : int;
  mutable ic_misses : int;
}

let create () =
  {
    steps = 0;
    allocations = 0;
    updates = 0;
    max_stack = 0;
    frames_trimmed = 0;
    thunks_poisoned = 0;
    thunks_paused = 0;
    catches = 0;
    collections = 0;
    live_copied = 0;
    async_delivered = 0;
    heap_overflows = 0;
    stack_overflows = 0;
    bc_dispatches = 0;
    ic_hits = 0;
    ic_misses = 0;
  }

let add acc t =
  acc.steps <- acc.steps + t.steps;
  acc.allocations <- acc.allocations + t.allocations;
  acc.updates <- acc.updates + t.updates;
  acc.max_stack <- max acc.max_stack t.max_stack;
  acc.frames_trimmed <- acc.frames_trimmed + t.frames_trimmed;
  acc.thunks_poisoned <- acc.thunks_poisoned + t.thunks_poisoned;
  acc.thunks_paused <- acc.thunks_paused + t.thunks_paused;
  acc.catches <- acc.catches + t.catches;
  acc.collections <- acc.collections + t.collections;
  acc.live_copied <- acc.live_copied + t.live_copied;
  acc.async_delivered <- acc.async_delivered + t.async_delivered;
  acc.heap_overflows <- acc.heap_overflows + t.heap_overflows;
  acc.stack_overflows <- acc.stack_overflows + t.stack_overflows;
  acc.bc_dispatches <- acc.bc_dispatches + t.bc_dispatches;
  acc.ic_hits <- acc.ic_hits + t.ic_hits;
  acc.ic_misses <- acc.ic_misses + t.ic_misses

let fields t =
  [
    ("steps", t.steps);
    ("allocations", t.allocations);
    ("updates", t.updates);
    ("max_stack", t.max_stack);
    ("frames_trimmed", t.frames_trimmed);
    ("thunks_poisoned", t.thunks_poisoned);
    ("thunks_paused", t.thunks_paused);
    ("catches", t.catches);
    ("collections", t.collections);
    ("live_copied", t.live_copied);
    ("async_delivered", t.async_delivered);
    ("heap_overflows", t.heap_overflows);
    ("stack_overflows", t.stack_overflows);
    ("bc_dispatches", t.bc_dispatches);
    ("ic_hits", t.ic_hits);
    ("ic_misses", t.ic_misses);
  ]

let pp_json ppf t =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:Fmt.comma (fun ppf (k, v) -> Fmt.pf ppf "%S:%d" k v))
    (fields t)

let pp ppf t =
  Fmt.pf ppf
    "steps=%d allocs=%d updates=%d max_stack=%d trimmed=%d poisoned=%d \
     paused=%d catches=%d gcs=%d async=%d heap_ovf=%d stack_ovf=%d \
     bc_dispatches=%d ic=%d/%d"
    t.steps t.allocations t.updates t.max_stack t.frames_trimmed
    t.thunks_poisoned t.thunks_paused t.catches t.collections
    t.async_delivered t.heap_overflows t.stack_overflows t.bc_dispatches
    t.ic_hits t.ic_misses
