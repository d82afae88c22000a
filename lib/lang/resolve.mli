(** The resolution (compile-to-slots) pass.

    One static walk over {!Syntax.expr} producing a pre-resolved IR the
    abstract machine can evaluate without any runtime string operation:
    variables become lexical (frame, offset) slots into array-backed
    environment frames, constructor names become interned integer tags,
    and every allocation site carries its precomputed free-variable
    footprint so closures capture a compact address array.

    Scoping is value-compatible with the name-based machine, including
    its lazy failure on unbound variables: resolution never rejects a
    term; dead unbound occurrences stay dead. *)

type slot = { frame : int; idx : int }
(** Walk [frame] environment links outward, then read index [idx]. *)

type rexpr =
  | RVar of slot
  | RUnbound of string
      (** Out-of-scope name; raises [TypeError "unbound variable ..."]
          only if evaluated. *)
  | RLit of Syntax.lit
  | RLam of lam
  | RApp of rexpr * arg
  | RCon of int * arg array
  | RCase of rexpr * ralt array
  | RLet of arg * rexpr
  | RLetrec of tspec array * rexpr
  | RPrim of Prim.t * rexpr list
  | RMapexn of arg * rexpr
  | RIsexn of rexpr
  | RGetexn of rexpr
  | RRaise of string * rexpr
      (** The string is the raise site's static label
          ("raise#<site>[:<hint>]"), threaded into exception
          provenance by the machine. *)

and arg =
  | Aslot of slot  (** Argument is a variable: reuse its address. *)
  | Athunk of tspec

and tspec = { caps : slot array; tbody : rexpr }
(** Thunk template: fill the capture array from the current environment
    at allocation time; [tbody] runs under that single frame. *)

and lam = { lcaps : slot array; lbody : rexpr; lname : string }
(** Closure template: [lbody] runs under a 1-slot argument frame chained
    onto the captured frame. *)

and ralt = { rpat : rpat; rrhs : rexpr }

and rpat =
  | Rpcon of int * int  (** tag, binder count *)
  | Rplit of Syntax.lit
  | Rpany of bool  (** [true] when the wildcard binds the scrutinee. *)

type context
(** Constructor-interning state, as an explicit record instead of hidden
    module globals (the serve daemon's re-entrancy audit). Interning is
    monotone and idempotent, so any number of machines may share a
    context; what a context buys is an explicit boundary — an embedder
    can sandbox a tenant's constructor vocabulary, and tests can prove
    two contexts never bleed into each other.

    A context also holds the resolved {!Prelude.defs}, filled the first
    time {!expr} resolves a {!Prelude.wrap}ped term in it. Its tags are
    the context's own, so every context fills its own copy. *)

val global_context : context
(** The shared default. The compiled-program cache and every
    cross-machine differential rely on resolving against one context, so
    this is what all entry points use unless told otherwise. *)

val new_context : unit -> context
(** A fresh context with {!Con_info.builtin_list} pre-interned in the
    same stable order as {!global_context}, so the [t_*] tags below are
    valid in every context. *)

val expr : ?ctx:context -> Syntax.expr -> rexpr
(** Resolve a (usually closed) top-level expression. Resolution is
    deterministic: the same source yields structurally identical IR
    (raise-site numbering restarts per call), which is what lets a
    compiled-program cache substitute for a fresh resolution.

    A term [Letrec (defs, body)] whose [defs] is physically
    {!Prelude.defs} (what {!Prelude.wrap} builds) resolves only [body]:
    its [RLetrec] reuses the context's resolved Prelude, and the body's
    raise sites number from where the Prelude's end. The result is
    structurally equal to a full resolution; the Prelude's spec array
    is shared by every such program of the context, and must not be
    mutated. A copy of the bindings list, or the same list under a
    nested [Letrec], takes the full path. *)

val held_prelude : context -> tspec array option
(** The spec array of the context's resolved Prelude, which every
    wrapped program's root [RLetrec] resolved in it shares, or [None]
    until {!expr} first resolves a wrapped program there. Never fills
    it, so asking costs nothing on a context that resolves only other
    terms. *)

val con_tag : ?ctx:context -> string -> int
(** Intern a constructor name (idempotent; builtins are pre-interned in
    {!Con_info.builtin_list} order, so their tags are stable). *)

val con_name : ?ctx:context -> int -> string
(** The name a tag was interned from. *)

(** {2 Pre-interned tags for the machine and its IO drivers} *)

val t_true : int
val t_false : int
val t_cons : int
val t_unit : int
val t_ok : int
val t_bad : int
val t_just : int
val t_nothing : int
val t_return : int
val t_bind : int
val t_get_char : int
val t_put_char : int
val t_get_exception : int
val t_bracket : int
val t_on_exception : int
val t_mask : int
val t_unmask : int
val t_timeout : int
val t_retry : int
val t_fork : int
val t_new_mvar : int
val t_take_mvar : int
val t_put_mvar : int
val t_mvar_ref : int
val t_my_thread_id : int
val t_throw_to : int
val t_thread_id : int
val t_new_chan : int
val t_read_chan : int
val t_write_chan : int
val t_chan_ref : int
val t_evaluate : int

val is_io_action_tag : int -> bool
(** Tags whose constructor is an IO action the drivers can perform
    (excludes the value wrappers [MVarRef] and [ThreadId]). Used by
    [getException] on an IO argument: performing-under-a-catch. *)

(** {2 Static accounting} *)

val count_nodes : rexpr -> int

val unbound : rexpr -> string list
(** Names that resolved to {!RUnbound} (in occurrence order). *)
