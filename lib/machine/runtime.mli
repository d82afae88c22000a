(** The machine runtime under both dispatch loops — {!Stg} (slot IR) and
    {!Bytecode} (flat code): the heap and its cells, the machine record,
    the latches, the async queue, exception readback, deep-forcing and
    the collector. A plain module, not a functor: each loop calls in
    directly, and everything that runs once per dispatch stays in the
    loop. The types are parameterised by what the machines do not share:
    ['body], a thunk's code (resolved IR, or a code-array pc); ['lam], a
    closure's code (a λ template, or a template-pool index); ['frame], a
    stack frame; ['prog], the program a machine is bound to.

    The exception machinery is Section 3.3's and 5.1's:

    - [getException] "marks the evaluation stack": {!force_catch} runs the
      loop with a catch mark at the bottom of the stack.
    - [raise ex] "simply trims the stack to the topmost mark": unwinding
      pops frames, and every update frame passed on the way has its thunk
      overwritten with [raise ex] ({!poison}), so re-evaluation re-raises
      the same exception (Section 3.3's correctness requirement).
    - Thunks under evaluation are black-holed; *entering* a black hole is a
      detectable bottom, which the machine is "permitted but not required"
      to report as [NonTermination] (Section 5.2) — controlled by
      [blackhole_nontermination].
    - Asynchronous events unwind like [raise], except that each abandoned
      thunk is overwritten with a *resumable* pause cell capturing the
      stack segment above it ({!unwind_async}), so no work is lost
      (Section 5.1's "fascinating wrinkle"). Re-entering a pause cell
      resumes evaluation exactly where it stopped. *)

type addr = int

type 'lam mvalue =
  | MInt of int
  | MChar of char
  | MString of string
  | MCon of int * addr array
      (** Constructor tag interned by {!Lang.Resolve.con_tag}; recover
          the name with {!Lang.Resolve.con_name}. *)
  | MClo of 'lam * addr array  (** Closure: code + captured addresses. *)

(** A chain of address frames mirroring the static scope the resolver
    compiled against. Capture points (thunks, closures) cut the chain to
    a single compact frame. *)
and env = Env_nil | Env_frame of addr array * env

(** A machine position: evaluate code in an environment, force an
    address, or return a value to the top frame. *)
type ('body, 'lam) code =
  | C_eval of 'body * env
  | C_enter of addr
  | C_ret of 'lam mvalue

type ('body, 'lam, 'frame) cell =
  | Cell_thunk of 'body * env
  | Cell_value of 'lam mvalue
  | Cell_blackhole
  | Cell_raise of Lang.Exn.t * Obs.origin
      (** Thunk poisoned by a synchronous unwinding (Section 3.3); the
          origin of the raise rides along so a later re-entry still
          reports where the exception originally came from. *)
  | Cell_paused of ('body, 'lam) code * 'frame list
      (** Resumable continuation left by an asynchronous unwinding
          (Section 5.1): code to resume and the stack segment above the
          thunk's update frame (top first). *)
  | Cell_unused

type config = {
  fuel : int;  (** Machine steps before reporting divergence. *)
  blackhole_nontermination : bool;
      (** Report a re-entered black hole as [NonTermination] rather than
          diverging (Section 5.2). *)
  poison_thunks : bool;
      (** Ablation (default [true]): overwrite abandoned thunks with
          [raise ex] during synchronous unwinding, as Section 3.3
          requires. With [false] the black hole is left in place and
          re-evaluation wrongly reports non-termination — the bug the
          paper's footnote 3 warns about. *)
  heap_limit : int option;
      (** Soft heap ceiling in cells (default [None]): when the heap
          reaches it, the machine raises [HeapOverflow] through the
          ordinary trim-the-stack path — a catchable imprecise exception,
          so a supervisor under [getException] can recover. The check
          then stays disarmed until {!gc} brings the heap back under the
          limit (the raise itself frees nothing). *)
  stack_limit : int option;
      (** Stack ceiling in frames (default [None]): exceeding it raises
          [StackOverflow] synchronously, trimming (and poisoning) the
          frames that overflowed. *)
}

val default_config : config

val arith_bound : int
(** Machine integers are 32-bit on both loops: arithmetic whose result
    falls outside [\[-arith_bound, arith_bound)] raises [Overflow]. *)

type failure =
  | Fail_exn of Lang.Exn.t  (** Uncaught synchronous exception. *)
  | Fail_async of Lang.Exn.t
      (** An asynchronous event delivered to the active catch. *)
  | Fail_diverged  (** Fuel exhausted, or a black hole re-entered. *)

val pp_failure : failure Fmt.t

(** Why a WHNF value could not be read back as an exception constant:
    not an exception at all (the caller chooses the message), or
    interpreting it raised an exception of its own (an exceptional
    payload propagates). *)
type to_exn_error = Not_exn | Exn_err of Lang.Exn.t

exception Machine_stuck of failure
(** Ends a run with this failure. *)

exception Prim_type_error of string
(** A primitive or pattern-match type error inside a loop, re-entered at
    the loop boundary as an ordinary synchronous raise: the denotational
    semantics makes no distinction. *)

type ('body, 'lam, 'frame) image
(** A root letrec group's cells, built once to start any number of
    heaps from: cell [i] is binding [i]'s thunk over the group's frame
    [[|0; …; n-1|]]. In practice the group is the Prelude, which every
    {!Lang.Prelude.wrap}ped program's root binds. An image is immutable:
    a machine started from it copies its slots, never its cells, and a
    machine overwrites a slot, never a cell or a frame. *)

val image : int -> (env -> int -> 'body * env) -> ('body, 'lam, 'frame) image
(** [image n thunk]: the image of an [n]-binding group, binding [i]'s
    cell being [Cell_thunk (thunk group i)] over the group's frame
    [group]. *)

(** A machine. Every piece of per-machine state lives here — the serve
    daemon's re-entrancy audit holds the machine to "no hidden process
    state". *)
type ('body, 'lam, 'frame, 'prog) t = {
  prog : 'prog;
  mutable heap : ('body, 'lam, 'frame) cell Growarray.t;
  mutable group : env;
      (** The frame of the group the heap started with ({!create}'s
          [image]), [Env_nil] without one. {!gc} relocates it. *)
  stats : Stats.t;
  cfg : config;
  rctx : Lang.Resolve.context;
      (** The interning context the machine's code was resolved against. *)
  mutable fuel_left : int;
  mutable async : (int * Lang.Exn.t) list;  (** Pending events, in order. *)
  mutable mask_depth : int;
  mutable heap_check_armed : bool;
      (** The heap limit fires once, then stays disarmed until {!gc}
          brings the heap back under it. *)
  trace : Obs.t;
  prov : Obs.provenance;
      (** Origin of the most recent raise of each exception constant. *)
}

type ('body, 'lam, 'frame, 'prog) run =
  ('body, 'lam, 'frame, 'prog) t ->
  catch:bool ->
  ('body, 'lam) code ->
  ('lam mvalue, failure) result
(** A dispatch loop: run from a position to WHNF. With [catch] the
    bottom of the run's stack is a catch mark: synchronous raises and
    asynchronous events that unwind all the way down are returned as
    [Error]. Events are polled only under a catch mark at mask depth 0. *)

val create :
  ?config:config ->
  ?trace:Obs.t ->
  ?rctx:Lang.Resolve.context ->
  ?image:('body, 'lam, 'frame) image ->
  'prog ->
  ('body, 'lam, 'frame, 'prog) t
(** [trace] is the flight recorder this machine reports into (default: a
    fresh, disabled recorder, which holds no event buffer — tracing
    costs one dead branch on the exceptional paths and nothing on the
    per-step fast path). [rctx] is the constructor-interning context the
    machine's code was resolved against (default
    {!Lang.Resolve.global_context}); a machine only reads names through
    its own context, so embedders can sandbox a tenant's constructor
    vocabulary.

    The heap starts at 256 slots, OCaml's [Max_young_wosize], so a new
    machine allocates nothing directly in the major heap: its heap array
    is born in the minor heap and dies there with a short-lived machine
    such as a serve request's. A larger start would be born in the major
    heap, and the next minor collection would promote every cell stored
    into it, machine dead or not. A heap that outgrows the start
    doubles; the start moves no {!Stats} counter.

    With [image], the heap starts as a copy of the image's [n] slots, at
    addresses [0 … n-1], and {!root} starts roots over the group's frame:
    a copy of [n] pointers instead of [n] fresh thunks, the saving of a
    serve request whose program binds the Prelude. Isolation holds
    because update, black-holing, poisoning and pausing each replace a
    slot of this heap, and no cell or frame is ever written in place, so
    no machine sees another's evaluation of a shared cell. The copied
    slots count in {!heap_size} (and so against [heap_limit]) but not in
    [Stats.allocations]. *)

val root : ('body, _, _, _) t -> 'body -> addr
(** [root m body]: a fresh root thunk of [body] over the machine's group
    frame ([Env_nil] on a machine started without an image): the
    program's body, which sees the group's bindings, or a closed
    program. *)

val stats : (_, _, _, _) t -> Stats.t
val heap_size : (_, _, _, _) t -> int
val trace : (_, _, _, _) t -> Obs.t

val origin_of : (_, _, _, _) t -> Lang.Exn.t -> Obs.origin option
(** Provenance of the most recent raise of this exception constant:
    raise-site label, stack depth and step number. Maintained whether or
    not the recorder is on. *)

val pp_exn_with_origin : (_, _, _, _) t -> Lang.Exn.t Fmt.t

val invariant_failure : (_, _, _, _) t -> string -> 'a
(** A dead branch reached: raises [Obs.Machine_invariant] carrying the
    flight-recorder dump and a stats snapshot. *)

val refuel : (_, _, _, _) t -> unit
(** Reset the step budget to [config.fuel] — the machine counterpart of
    {!Semantics.Denot.refill}, used by long-running drivers so one
    divergent transition does not starve the rest of the program. *)

val set_mask_depth : (_, _, _, _) t -> int -> unit
(** Set the asynchronous-exception mask depth. While positive, pending
    async events are deferred even under a catch mark — this is how
    [bracket]'s acquire and release phases (and explicit [Mask] sections)
    are protected from being torn mid-flight. The IO layer keeps a depth
    per thread and sets it before each [getException]. *)

val alloc_cell : ('b, 'l, 'f, _) t -> ('b, 'l, 'f) cell -> addr
val alloc_value : (_, 'l, _, _) t -> 'l mvalue -> addr

val alloc_app : ('b, _, _, _) t -> 'b -> addr -> addr -> addr
(** [alloc_app m app f x]: a thunk applying the function at [f] to the
    argument at [x], through the machine's [$f $x] template [app] over a
    [[|f; x|]] frame. *)

val inject_async : (_, _, _, _) t -> at_step:int -> Lang.Exn.t -> unit
(** Schedule an asynchronous event. Events are delivered in injection
    order, each no earlier than its step: only the oldest pending event
    is polled, at every step that runs under an unmasked catch mark
    (events are delivered only to [getException], Section 5.1), and it
    fires at the first such step at or after its [at_step]. A later
    event waits for every earlier one: a [Timeout] for step 100 injected
    after an [Interrupt] for step 1,500 fires on the step after the
    interrupt. *)

val clear_async : (_, _, _, _) t -> unit
(** Drop every pending asynchronous event. The serve daemon slices
    evaluation by injecting an interrupt each [slice] steps; once a
    request reaches WHNF the unfired interrupt must be withdrawn before
    deep-forcing, or it would tear a structure field mid-print. *)

(** {1 The loops' exceptional paths} *)

val note_raise :
  (_, _, _, _) t -> depth:int -> string -> Lang.Exn.t -> Obs.origin
(** Register the origin of a raise at a labelled site, and record it
    when the recorder is on. *)

val note_reraise : (_, _, _, _) t -> Obs.origin -> Lang.Exn.t -> unit
(** A poisoned thunk re-entered: replay its raise's origin. *)

val poison : (_, _, _, _) t -> addr -> Lang.Exn.t -> Obs.origin -> unit
(** Overwrite a thunk abandoned by synchronous unwinding with
    [raise ex], unless the [poison_thunks] ablation is on. *)

val unwind_async :
  ('b, 'l, 'f, _) t ->
  depth:int ->
  update:('f -> addr option) ->
  ('b, 'l) code ->
  'f list ->
  Lang.Exn.t ->
  'a
(** [unwind_async m ~depth ~update cur stack exn] delivers an event at
    position [cur]: it unwinds all of [stack], overwrites each thunk whose
    update frame ([update] finds them) it passes with a pause cell, and
    ends the run with [Fail_async]. *)

(** {1 Primitive comparison and exception readback} *)

val compare_prim :
  (_, 'l, _, _) t -> Lang.Prim.t -> 'l mvalue -> 'l mvalue -> 'l mvalue
(** [compare_prim m p a b]: the Bool that comparison primitive [p]
    ([Eq] … [Ge]) gives on two WHNF values. Nullary constructors compare
    by name; other shapes raise [Prim_type_error]. *)

val exn_to_mvalue : (_, 'l, _, _) t -> Lang.Exn.t -> 'l mvalue

val mvalue_to_exn :
  ('b, 'l, 'f, 'p) run ->
  ('b, 'l, 'f, 'p) t ->
  'l mvalue ->
  (Lang.Exn.t, to_exn_error) result
(** Read a WHNF value back as an exception constant, forcing its payload
    in a nested run. *)

val raised_exn :
  ('b, 'l, 'f, 'p) run -> ('b, 'l, 'f, 'p) t -> 'l mvalue -> Lang.Exn.t
(** The exception [raise v] throws: [v] read back, the exception its
    payload raised, or (as {!Semantics.Sem_value.exn_of_whnf} has it) a
    uniform type error when [v] is not an exception. *)

val map_exn :
  ('b, 'l, 'f, 'p) run ->
  ('b, 'l, 'f, 'p) t ->
  app:'b ->
  addr ->
  Lang.Exn.t ->
  Lang.Exn.t
(** [mapException]'s transformation of the representative exception
    (Section 5.4), by a nested run of the function at the address. A
    handler that diverges or is interrupted ends the run as diverged. *)

(** {1 Running a loop} *)

type ('body, 'lam, 'frame, 'prog) whnf =
  ('body, 'lam, 'frame, 'prog) t -> addr -> ('lam mvalue, failure) result
(** Evaluate the thunk at an address to WHNF. *)

val force : ('b, 'l, 'f, 'p) run -> ('b, 'l, 'f, 'p) whnf
(** With no catch mark: a raise is an uncaught exception; asynchronous
    events stay pending. *)

val force_catch : ('b, 'l, 'f, 'p) run -> ('b, 'l, 'f, 'p) whnf
(** Under a catch mark — the evaluation part of [getException].
    [Error (Fail_exn e)] means [e] was caught. *)

val deep :
  ('b, 'l, 'f, 'p) run ->
  ?depth:int ->
  ('b, 'l, 'f, 'p) t ->
  addr ->
  Semantics.Sem_value.deep
(** Force the structure rooted at an address recursively (catching
    per-field failures as [DBad] singletons, divergence as [DBad All]). *)

val copy_env : (addr -> addr) -> env -> env
val copy_value : (addr -> addr) -> 'l mvalue -> 'l mvalue

val gc :
  ((addr -> addr) -> 'f -> 'f) -> (_, _, 'f, _) t -> roots:addr list ->
  addr list
(** [gc copy_frame m ~roots]: copying garbage collection over the heap,
    given the machine's frame copier (which relocates a frame's addresses
    with the function it is passed). Must be called between runs (no
    evaluation in progress); [roots] are the addresses the caller still
    holds, and the relocated addresses are returned in the same order.
    The group frame is a root too, relocated in place, so {!root} stays
    valid. Every other address becomes invalid. Pause cells and poisoned thunks
    survive with their contents intact, so interrupted computations stay
    resumable across collections. *)
