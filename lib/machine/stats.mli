(** Deterministic cost counters for the abstract machine — the currency of
    the paper's efficiency claims (C6, C7): machine steps, heap
    allocations, thunk updates, stack depth, frames trimmed by [raise],
    catch frames pushed.

    The IO layer's fault counters (brackets, masked sections, timeouts,
    [throwTo] deliveries, blocked recoveries) live in the IO core's own
    [counters], not here. *)

type t = {
  mutable steps : int;
  mutable allocations : int;
  mutable updates : int;
  mutable max_stack : int;
  mutable frames_trimmed : int;  (** Frames popped while unwinding. *)
  mutable thunks_poisoned : int;
      (** Thunks overwritten with [raise ex] during sync unwinding. *)
  mutable thunks_paused : int;
      (** Thunks overwritten with resumable pause cells (async). *)
  mutable catches : int;
  mutable collections : int;  (** Heap garbage collections run. *)
  mutable live_copied : int;
      (** Cells copied by collections (total survivors). *)
  mutable async_delivered : int;
      (** Asynchronous exceptions actually delivered (not deferred). *)
  mutable heap_overflows : int;
      (** [HeapOverflow] raises from a configured heap limit. *)
  mutable stack_overflows : int;
      (** [StackOverflow] raises from a configured stack limit. *)
  mutable bc_dispatches : int;
      (** Instruction dispatches by the flat bytecode backend
          ({!Bytecode}); every other machine reports exactly 0. *)
  mutable ic_hits : int;
      (** Case-site inline-cache hits on constructor tag dispatch
          (bytecode backend only; the fast path skipped the alternative
          table walk). *)
  mutable ic_misses : int;
      (** Constructor scrutinees that fell back to the alternative table
          walk (cache empty or a different tag/arity; the walk refills
          the cache on a constructor match). *)
}

val create : unit -> t

val add : t -> t -> unit
(** [add acc t] accumulates [t]'s counters into [acc] field-wise
    ([max_stack] takes the max). Lets the serve daemon expose machine
    totals across requests whose per-request machines are long gone. *)

val fields : t -> (string * int) list
(** All counters as (name, value), in declaration order. *)

val pp : t Fmt.t

val pp_json : t Fmt.t
(** One-line JSON object, for the serve [stats] verb and bench tables. *)
