(** A growable array — the machine's heap substrate (OCaml 5.1 predates
    [Dynarray]). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val fast_get : 'a t -> int -> 'a
(** [get] without the explicit length check — for interpreter hot loops
    whose indices are machine-allocated and thus trusted. Still
    memory-safe (the backing array bounds-checks); an index between the
    length and the capacity reads the dummy rather than raising. *)

val fast_set : 'a t -> int -> 'a -> unit
(** [set] counterpart of {!fast_get}. *)

val push : 'a t -> 'a -> int
(** Append and return the new element's index. *)

val append : 'a t -> 'a array -> unit
(** Append every element of the array, in order, in one copy. *)
