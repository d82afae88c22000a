type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 1024) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Growarray: index %d out of bounds %d" i t.len)

let get t i =
  check t i;
  t.data.(i)

let set t i v =
  check t i;
  t.data.(i) <- v

let fast_get t i = t.data.(i)
let fast_set t i v = t.data.(i) <- v

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t v =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- v;
  t.len <- t.len + 1;
  t.len - 1

let append t a =
  let n = Array.length a in
  while t.len + n > Array.length t.data do
    grow t
  done;
  Array.blit a 0 t.data t.len n;
  t.len <- t.len + n
