(* Time and sample buffers that stay out of the measurement: the clock
   read is an unboxed, allocation-free C call, and latency samples live
   in preallocated unboxed float arrays (a boxed-float list would cost
   ~40 bytes per sample and show up in the GC numbers being measured). *)

(* The monotonic clock of bechamel.monotonic_clock, bound directly: an
   external is called unboxed from any module, even where a function
   would not be inlined across modules. *)
external mono_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* Monotonic nanoseconds as a float: exact to the nanosecond for the
   ~100 days of uptime a 53-bit mantissa covers. *)
let now_ns () = Int64.to_float (mono_ns ())

let ns_per_s = 1e9

module Samples = struct
  type t = { data : Float.Array.t; mutable n : int; mutable dropped : int }

  let create capacity =
    { data = Float.Array.make (max 1 capacity) 0.; n = 0; dropped = 0 }

  let add t v =
    if t.n < Float.Array.length t.data then begin
      Float.Array.unsafe_set t.data t.n v;
      t.n <- t.n + 1
    end
    else t.dropped <- t.dropped + 1

  let count t = t.n

  let sorted t =
    let a = Float.Array.sub t.data 0 t.n in
    Float.Array.sort Float.compare a;
    a

  (* Nearest-rank percentile of a sorted array; 0 when empty. *)
  let rank a q =
    let n = Float.Array.length a in
    if n = 0 then 0.
    else
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      Float.Array.get a (max 0 (min (n - 1) k))

  let median t = rank (sorted t) 0.5

  (* The tail percentile this sample supports: p99 when at least ten
     samples lie beyond it, otherwise the highest percentile that still
     has ten beyond it (the largest sample when there are fewer than
     eleven). Returns (value, percentile used). *)
  let tail t =
    let a = sorted t in
    let n = Float.Array.length a in
    if n = 0 then (0., 0.)
    else
      let k99 = int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1 in
      let k = max 0 (min k99 (n - 11)) in
      let k = if n < 11 then n - 1 else k in
      (Float.Array.get a k, 100. *. float_of_int (k + 1) /. float_of_int n)

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. Float.Array.unsafe_get t.data i
    done;
    !s
end

(* The host's speed. The machine this benchmark is built for is shared:
   its speed swings by up to 2x over seconds to minutes as other tenants
   come and go, with almost no steal time visible to the guest, and a
   slow phase can cover whole runs. So a fixed kernel is timed in short
   bursts throughout each run, and time metrics are scaled by how much
   slower than its reference time it ran: they read as the time the
   program would take on the host at the reference speed.

   The kernel makes two passes that allocate nothing, over arrays
   outside the OCaml heap, so nothing the system under test changes (its
   heap, its GC settings) changes the kernel's time, and the kernel adds
   nothing to the heap metrics: one writes through a 4 MB array while
   reading it at a stride, the other writes through a 2 MB array while
   reading it half an array ahead. On the 2-vCPU host of the baseline,
   over 12 minutes in which the raw throughput of [serve-hot] blocks
   swung 1.8x, scaling half-second blocks by the two passes' summed time
   left a spread (interquartile range / median) of 0.03 in 15-second
   throughput medians and 0.04 in p50 latency, against 0.33 and 0.37
   unscaled; either pass alone left 0.06-0.10, and a pointer chase or an
   ALU loop tracked the engine worse still. *)
module Speed = struct
  open Bigarray

  let buffer words =
    let a = Array1.create int c_layout words in
    Array1.fill a 0;
    a

  let strided = buffer (1 lsl 19)
  let ahead = buffer (1 lsl 18)
  let steps = 400_000

  (* A burst's time at the reference speed: its usual time on the
     baseline's host in a quiet phase. *)
  let reference_ns = 2.6e6

  (* Run one burst; its time over the reference time (above 1 when the
     host is slower than the reference). *)
  let burst () =
    let t = now_ns () in
    let m = Array1.dim strided - 1 in
    for i = 0 to steps - 1 do
      let j = i land m in
      Array1.unsafe_set strided j (j + Array1.unsafe_get strided ((j * 7) land m))
    done;
    let m = Array1.dim ahead - 1 and acc = ref 0 in
    for i = 0 to steps - 1 do
      let j = i land m in
      acc := !acc + Array1.unsafe_get ahead ((j + (m / 2)) land m);
      Array1.unsafe_set ahead j !acc
    done;
    (now_ns () -. t) /. reference_ns
end

(* Latency samples tagged with the block of the run they fell in, when
   each block's first operation started and its last ended, and the
   speed bursts run inside each block. Time metrics are scaled block by
   block by the host's slowdown ({!Speed}). A [paced] lane's length is
   not scaled: an open loop's arrival schedule sets its throughput. *)
module Blocked = struct
  type t = {
    s : Samples.t;
    blk : int array;
    first : Float.Array.t;
    last : Float.Array.t;
    slow : Float.Array.t;  (** Sum of the block's burst slowdowns. *)
    bursts : int array;
    paused : Float.Array.t;  (** Time the block spent in bursts, ns. *)
    paced : bool;
  }

  let create ?(paced = false) capacity blocks =
    let blocks = max 1 blocks in
    {
      s = Samples.create capacity;
      blk = Array.make (max 1 capacity) 0;
      first = Float.Array.make blocks Float.infinity;
      last = Float.Array.make blocks Float.neg_infinity;
      slow = Float.Array.make blocks 0.;
      bursts = Array.make blocks 0;
      paused = Float.Array.make blocks 0.;
      paced;
    }

  (* Run a speed burst inside [block]; returns its duration in ns. *)
  let burst t block =
    let a = now_ns () in
    let f = Speed.burst () in
    let d = now_ns () -. a in
    Float.Array.set t.slow block (Float.Array.get t.slow block +. f);
    t.bursts.(block) <- t.bursts.(block) + 1;
    (* Only a burst after the block's first operation began lies inside
       the block's measured length. *)
    if Float.Array.get t.first block < Float.infinity then
      Float.Array.set t.paused block (Float.Array.get t.paused block +. d);
    d

  (* Each block's slowdown: the median, over the three of the lane's
     blocks that ran bursts nearest to it, of each one's mean burst, so
     that one burst a preemption slowed does not rescale its block. *)
  let slowdowns t =
    let nb = Array.length t.bursts in
    let timed = List.filter (fun b -> t.bursts.(b) > 0) (List.init nb Fun.id) |> Array.of_list in
    let mean b = Float.Array.get t.slow b /. float_of_int t.bursts.(b) in
    let m = Array.length timed in
    let near = ref 0 in
    Array.init nb (fun b ->
        if m = 0 then 1.
        else begin
          while !near + 1 < m && abs (timed.(!near + 1) - b) <= abs (timed.(!near) - b) do
            incr near
          done;
          let lo = max 0 (min (!near - 1) (m - 3)) in
          let w = Float.Array.init (min 3 m) (fun i -> mean timed.(lo + i)) in
          Float.Array.sort Float.compare w;
          Float.Array.get w (Float.Array.length w / 2)
        end)

  type scaled = {
    scaled : Samples.t;  (** The samples, scaled to the reference speed. *)
    raw : Samples.t;  (** The samples as measured. *)
    len : float;  (** The blocks' total length, ns, scaled unless paced. *)
    raw_len : float;
    slowdown : float;  (** The blocks' mean slowdown. *)
  }

  let scale t =
    let n = t.s.Samples.n in
    let f = slowdowns t in
    let scaled = Samples.create n and raw = Samples.create n in
    for i = 0 to n - 1 do
      let v = Float.Array.get t.s.Samples.data i in
      Samples.add raw v;
      Samples.add scaled (v /. f.(t.blk.(i)))
    done;
    let len = ref 0. and raw_len = ref 0. and slow = ref 0. and blocks = ref 0 in
    Array.iteri
      (fun b fb ->
        let l = Float.Array.get t.last b -. Float.Array.get t.first b in
        if l >= 0. then begin
          let l = l -. Float.Array.get t.paused b in
          raw_len := !raw_len +. l;
          len := !len +. if t.paced then l else l /. fb;
          slow := !slow +. fb;
          incr blocks
        end)
      f;
    {
      scaled;
      raw;
      len = !len;
      raw_len = !raw_len;
      slowdown = (if !blocks = 0 then 1. else !slow /. float_of_int !blocks);
    }
end

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log (Float.max x 1e-12)) 0. xs
        /. float_of_int (List.length xs))
