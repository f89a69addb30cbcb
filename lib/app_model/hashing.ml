(** Small deterministic mixing helpers shared by the applications.

    Applications must be deterministic yet we want varied, data-dependent
    behaviour (fan-out choices, payload transforms).  These helpers derive
    pseudo-random-looking but fully reproducible values from application
    data, independent of any global hash state. *)

let mix h x =
  (* Boost-style hash_combine on 62-bit ints. *)
  let h = h lxor (x + 0x9e3779b9 + (h lsl 6) + (h lsr 2)) in
  h land max_int

let int x = mix 0 x

(* A loop with no closure, so hashing a key allocates nothing. *)
let rec string_from s h i =
  if i = String.length s then h
  else string_from s (mix h (Char.code (String.unsafe_get s i))) (i + 1)

let string s = string_from s (String.length s) 0

let pair a b = mix (int a) b

let in_range h ~bound =
  if bound <= 0 then invalid_arg "Hashing.in_range: bound must be positive";
  (* Re-mix before reducing so that small structured inputs spread out. *)
  int h mod bound
