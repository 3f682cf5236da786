type agent = A | L | Intruder
type key = Pa | Ka of int | Kg of int

type t =
  | FAgent of agent
  | FNonce of int
  | FKey of key
  | FData of int
  | FCat of t list
  | FCrypt of key * t

(* Hand-written comparisons with exactly [Stdlib.compare]'s order —
   constructor rank first, then fields left to right, [[]] before a
   cons, [Pa] < [Ka _] < [Kg _] — so every set iterates as it would
   under the polymorphic compare, which inspects every word's
   representation at run time. *)

let agent_rank = function A -> 0 | L -> 1 | Intruder -> 2

let compare_key k k' =
  match (k, k') with
  | Pa, Pa -> 0
  | Pa, (Ka _ | Kg _) -> -1
  | (Ka _ | Kg _), Pa -> 1
  | Ka i, Ka j | Kg i, Kg j -> Int.compare i j
  | Ka _, Kg _ -> -1
  | Kg _, Ka _ -> 1

let rank = function
  | FAgent _ -> 0
  | FNonce _ -> 1
  | FKey _ -> 2
  | FData _ -> 3
  | FCat _ -> 4
  | FCrypt _ -> 5

let rec compare f g =
  if f == g then 0
  else
    match (f, g) with
    | FAgent a, FAgent b -> Int.compare (agent_rank a) (agent_rank b)
    | FNonce i, FNonce j | FData i, FData j -> Int.compare i j
    | FKey k, FKey k' -> compare_key k k'
    | FCat fs, FCat gs -> compare_list fs gs
    | FCrypt (k, f), FCrypt (k', g) ->
        let c = compare_key k k' in
        if c <> 0 then c else compare f g
    | _ -> Int.compare (rank f) (rank g)

and compare_list fs gs =
  match (fs, gs) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | f :: fs, g :: gs ->
      let c = compare f g in
      if c <> 0 then c else compare_list fs gs

let equal f g = compare f g = 0

(* A prefix-free byte encoding, so that a concatenation of encodings
   is itself injective: every value starts with a tag byte that fixes
   what follows. Agents and key kinds are folded into the tag. *)

(* LEB128 over the 63 bits of [n]. *)
let rec encode_int b n =
  if n land lnot 0x7f = 0 then Buffer.add_uint8 b n
  else begin
    Buffer.add_uint8 b (n land 0x7f lor 0x80);
    encode_int b (n lsr 7)
  end

let encode_key b base = function
  | Pa -> Buffer.add_uint8 b base
  | Ka i ->
      Buffer.add_uint8 b (base + 1);
      encode_int b i
  | Kg i ->
      Buffer.add_uint8 b (base + 2);
      encode_int b i

let rec encode b = function
  | FAgent a -> Buffer.add_uint8 b (agent_rank a)
  | FKey k -> encode_key b 3 k
  | FCrypt (k, body) ->
      encode_key b 6 k;
      encode b body
  | FNonce n ->
      Buffer.add_uint8 b 9;
      encode_int b n
  | FData d ->
      Buffer.add_uint8 b 10;
      encode_int b d
  | FCat fs ->
      Buffer.add_uint8 b 11;
      encode_int b (List.length fs);
      List.iter (encode b) fs

let pp_agent fmt = function
  | A -> Format.pp_print_string fmt "A"
  | L -> Format.pp_print_string fmt "L"
  | Intruder -> Format.pp_print_string fmt "E"

let pp_key fmt = function
  | Pa -> Format.pp_print_string fmt "Pa"
  | Ka i -> Format.fprintf fmt "Ka%d" i
  | Kg i -> Format.fprintf fmt "Kg%d" i

let rec pp fmt = function
  | FAgent a -> pp_agent fmt a
  | FNonce n -> Format.fprintf fmt "N%d" n
  | FKey k -> pp_key fmt k
  | FData d -> Format.fprintf fmt "X%d" d
  | FCat fs ->
      Format.fprintf fmt "[%a]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ",") pp)
        fs
  | FCrypt (k, body) -> Format.fprintf fmt "{%a}_%a" pp body pp_key k

let cat fs =
  if List.length fs < 2 then invalid_arg "Field.cat: need at least two parts";
  FCat fs

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
