(** Indexed scheduler runtime: the data structures behind the O(1)
    scheduler of the one IO core ({!Semantics.Io_core}).

    The seed schedulers kept every piece of scheduler state in OCaml
    lists: the thread table was a [thread list] scanned with [List.find],
    the per-round runnable set was rebuilt with [List.filter] over all
    threads, MVar waiter queues were [int list]s popped with
    [List.rev]/[List.filter], and blocked-indefinitely detection rescanned
    every MVar in the store. All of it is linear per transition, which
    caps the runtime at example scale. This module provides the indexed
    replacements; the scheduler itself is responsible for using them in
    a way that preserves the seed's exact schedule.

    - {!Vec}: a growable array used as the tid-indexed thread table
      (tids are dense, allocated from 0), replacing [List.find].
    - {!Fifo}: an intrusive doubly-linked queue with O(1) delete-by-node,
      used for per-MVar / per-channel waiter queues. Deleting by node
      rather than by value makes removal duplicate-value-safe and is the
      blocked-on edge of the blocked-thread graph: a blocked thread holds
      the node that represents its (thread, cell) edge, so scrubbing it
      on exceptional wakeup is O(1) instead of a scan over every cell.
    - {!Bitq}: a two-level bitmap over tids with an ascending cursor,
      used as the run queue. Iterating it visits runnable threads in tid
      (creation) order — the same order the seed's [List.filter] snapshot
      produced — while insertion, deletion and membership are O(1).
    - {!Heap}: a binary min-heap of [(wake_at, tid)] pairs for sleeping
      threads, replacing the per-round full-table scan and the
      [List.fold_left min] fast-forward. *)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

module Vec = struct
  type 'a t = {
    mutable arr : 'a array;
    mutable len : int;
    dummy : 'a;  (** padding for unused slots *)
  }

  let create ?(capacity = 16) dummy =
    { arr = Array.make (max 1 capacity) dummy; len = 0; dummy }

  let length v = v.len

  let push v x =
    if v.len = Array.length v.arr then begin
      let arr' = Array.make (2 * Array.length v.arr) v.dummy in
      Array.blit v.arr 0 arr' 0 v.len;
      v.arr <- arr'
    end;
    v.arr.(v.len) <- x;
    v.len <- v.len + 1

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Vec.get" else v.arr.(i)

  let iter f v =
    for i = 0 to v.len - 1 do
      f v.arr.(i)
    done
end

(* ------------------------------------------------------------------ *)
(* Fifo                                                                *)
(* ------------------------------------------------------------------ *)

module Fifo = struct
  type 'a node = {
    value : 'a;
    mutable prev : 'a node option;
    mutable next : 'a node option;
    mutable in_q : bool;
  }

  type 'a t = {
    mutable head : 'a node option;
    mutable tail : 'a node option;
    mutable len : int;
  }

  let create () = { head = None; tail = None; len = 0 }
  let length q = q.len
  let is_empty q = q.len = 0

  let push_tail q x =
    let n = { value = x; prev = q.tail; next = None; in_q = true } in
    (match q.tail with
    | None -> q.head <- Some n
    | Some t -> t.next <- Some n);
    q.tail <- Some n;
    q.len <- q.len + 1;
    n

  (* Unlink [n] from [q] in O(1). Safe to call on a node already popped
     or removed (a no-op) — this is what makes waiter scrubbing
     idempotent. The node, not its value, identifies the entry, so
     duplicate values in the queue are removed independently. *)
  let remove q n =
    if n.in_q then begin
      (match n.prev with None -> q.head <- n.next | Some p -> p.next <- n.next);
      (match n.next with None -> q.tail <- n.prev | Some s -> s.prev <- n.prev);
      n.prev <- None;
      n.next <- None;
      n.in_q <- false;
      q.len <- q.len - 1
    end

  let pop_head q =
    match q.head with
    | None -> None
    | Some n ->
        remove q n;
        Some n.value

  let peek_head q = Option.map (fun n -> n.value) q.head

  let to_list q =
    let rec go acc = function
      | None -> List.rev acc
      | Some n -> go (n.value :: acc) n.next
    in
    go [] q.head
end

(* ------------------------------------------------------------------ *)
(* Bitq                                                                *)
(* ------------------------------------------------------------------ *)

module Bitq = struct
  (* 32 bits per word keeps the bit arithmetic shift-based and portable
     across OCaml's 63-bit native ints. Level 1 summarises which level-0
     words are non-empty, so [next] skips empty 1024-tid spans in one
     word test. *)
  let word_bits = 32
  let lvl0_shift = 5 (* tid lsr 5 = level-0 word *)
  let lvl1_shift = 10 (* tid lsr 10 = level-1 word-of-words *)

  type t = {
    mutable l0 : int array;
    mutable l1 : int array;
    mutable card : int;
  }

  let create ?(capacity = 1024) () =
    let cap = max capacity word_bits in
    {
      l0 = Array.make ((cap lsr lvl0_shift) + 1) 0;
      l1 = Array.make ((cap lsr lvl1_shift) + 1) 0;
      card = 0;
    }

  let ensure q i =
    let w0 = i lsr lvl0_shift in
    if w0 >= Array.length q.l0 then begin
      let n = Array.length q.l0 in
      let n' = max (2 * n) (w0 + 1) in
      let l0' = Array.make n' 0 in
      Array.blit q.l0 0 l0' 0 n;
      q.l0 <- l0'
    end;
    let w1 = i lsr lvl1_shift in
    if w1 >= Array.length q.l1 then begin
      let n = Array.length q.l1 in
      let n' = max (2 * n) (w1 + 1) in
      let l1' = Array.make n' 0 in
      Array.blit q.l1 0 l1' 0 n;
      q.l1 <- l1'
    end

  let mem q i =
    let w0 = i lsr lvl0_shift in
    w0 < Array.length q.l0
    && q.l0.(w0) land (1 lsl (i land (word_bits - 1))) <> 0

  let add q i =
    if i < 0 then invalid_arg "Bitq.add";
    ensure q i;
    let w0 = i lsr lvl0_shift in
    let b0 = 1 lsl (i land (word_bits - 1)) in
    if q.l0.(w0) land b0 = 0 then begin
      q.l0.(w0) <- q.l0.(w0) lor b0;
      let w1 = i lsr lvl1_shift in
      q.l1.(w1) <- q.l1.(w1) lor (1 lsl (w0 land (word_bits - 1)));
      q.card <- q.card + 1
    end

  let remove q i =
    let w0 = i lsr lvl0_shift in
    if w0 < Array.length q.l0 then begin
      let b0 = 1 lsl (i land (word_bits - 1)) in
      if q.l0.(w0) land b0 <> 0 then begin
        q.l0.(w0) <- q.l0.(w0) land lnot b0;
        if q.l0.(w0) = 0 then begin
          let w1 = i lsr lvl1_shift in
          q.l1.(w1) <- q.l1.(w1) land lnot (1 lsl (w0 land (word_bits - 1)))
        end;
        q.card <- q.card - 1
      end
    end

  let cardinal q = q.card
  let is_empty q = q.card = 0

  let lowest_bit_index w =
    let rec go w i = if w land 1 <> 0 then i else go (w lsr 1) (i + 1) in
    go (w land -w) 0

  (* The first non-empty level-0 word at or after word [start], found
     through the level-1 summary words from [j] on; -1 if none. *)
  let rec scan_l1 q start j =
    if j >= Array.length q.l1 then -1
    else
      let m =
        if j = start lsr lvl0_shift then
          q.l1.(j) land lnot ((1 lsl (start land (word_bits - 1))) - 1)
        else q.l1.(j)
      in
      if m = 0 then scan_l1 q start (j + 1)
      else
        let w0 = (j lsl lvl0_shift) lor lowest_bit_index m in
        (w0 lsl lvl0_shift) lor lowest_bit_index q.l0.(w0)

  (* Smallest member >= [i], or -1: the run-queue cursor. The round
     steps threads in ascending tid order while wakes and forks mutate the
     set behind the cursor; answering with a bare int keeps each step
     allocation-free. *)
  let next q i =
    let i = max i 0 in
    let w0 = i lsr lvl0_shift in
    if w0 >= Array.length q.l0 then -1
    else
      (* Bits >= i in its own level-0 word first, then the summary. *)
      let masked = q.l0.(w0) land lnot ((1 lsl (i land (word_bits - 1))) - 1) in
      if masked <> 0 then (w0 lsl lvl0_shift) lor lowest_bit_index masked
      else scan_l1 q (w0 + 1) ((w0 + 1) lsr lvl0_shift)

  let iter f q =
    let rec go i =
      let j = next q i in
      if j >= 0 then begin
        f j;
        go (j + 1)
      end
    in
    go 0

  let to_list q =
    let acc = ref [] in
    iter (fun i -> acc := i :: !acc) q;
    List.rev !acc
end

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

module Heap = struct
  (* Min-heap of (key, payload) pairs, ordered by key then payload so
     equal wake-times pop in tid order (the seed woke due sleepers in tid
     order). Deletion is lazy: the schedulers validate the payload's
     state when an entry surfaces and drop stale ones. *)
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable len : int;
  }

  let create ?(capacity = 16) () =
    let cap = max 1 capacity in
    { keys = Array.make cap 0; vals = Array.make cap 0; len = 0 }

  let length h = h.len
  let is_empty h = h.len = 0

  let less h i j =
    h.keys.(i) < h.keys.(j)
    || (h.keys.(i) = h.keys.(j) && h.vals.(i) < h.vals.(j))

  let swap h i j =
    let k = h.keys.(i) and v = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- v

  let push h key value =
    if h.len = Array.length h.keys then begin
      let n = Array.length h.keys in
      let keys' = Array.make (2 * n) 0 and vals' = Array.make (2 * n) 0 in
      Array.blit h.keys 0 keys' 0 n;
      Array.blit h.vals 0 vals' 0 n;
      h.keys <- keys';
      h.vals <- vals'
    end;
    h.keys.(h.len) <- key;
    h.vals.(h.len) <- value;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && less h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let peek h = if h.len = 0 then None else Some (h.keys.(0), h.vals.(0))

  let pop h =
    if h.len = 0 then None
    else begin
      let top = (h.keys.(0), h.vals.(0)) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.keys.(0) <- h.keys.(h.len);
        h.vals.(0) <- h.vals.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && less h l !smallest then smallest := l;
          if r < h.len && less h r !smallest then smallest := r;
          if !smallest <> !i then begin
            swap h !i !smallest;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some top
    end
end
