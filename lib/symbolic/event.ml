type label =
  | AuthInitReq
  | AuthKeyDist
  | AuthAckKey
  | AdminMsg
  | Ack
  | ReqClose
  | LReqOpen
  | LAckOpen
  | LConnDenied
  | LAuth1
  | LAuth2
  | LAuth3
  | LNewKey
  | LMemRemoved
  | LReqClose

type t =
  | Msg of {
      label : label;
      sender : Field.agent;
      recipient : Field.agent;
      content : Field.t;
    }
  | Oops of Field.t

let label_rank = function
  | AuthInitReq -> 0
  | AuthKeyDist -> 1
  | AuthAckKey -> 2
  | AdminMsg -> 3
  | Ack -> 4
  | ReqClose -> 5
  | LReqOpen -> 6
  | LAckOpen -> 7
  | LConnDenied -> 8
  | LAuth1 -> 9
  | LAuth2 -> 10
  | LAuth3 -> 11
  | LNewKey -> 12
  | LMemRemoved -> 13
  | LReqClose -> 14

let agent_rank : Field.agent -> int = function A -> 0 | L -> 1 | Intruder -> 2

(* [Stdlib.compare]'s order, as in {!Field.compare}: [Msg] before
   [Oops], a message's fields in declaration order. *)
let compare e e' =
  if e == e' then 0
  else
    match (e, e') with
    | Msg m, Msg m' ->
        let c = Int.compare (label_rank m.label) (label_rank m'.label) in
        if c <> 0 then c
        else
          let c = Int.compare (agent_rank m.sender) (agent_rank m'.sender) in
          if c <> 0 then c
          else
            let c =
              Int.compare (agent_rank m.recipient) (agent_rank m'.recipient)
            in
            if c <> 0 then c else Field.compare m.content m'.content
    | Msg _, Oops _ -> -1
    | Oops _, Msg _ -> 1
    | Oops f, Oops f' -> Field.compare f f'

let equal a b = compare a b = 0

let pp_label fmt l =
  Format.pp_print_string fmt
    (match l with
    | AuthInitReq -> "AuthInitReq"
    | AuthKeyDist -> "AuthKeyDist"
    | AuthAckKey -> "AuthAckKey"
    | AdminMsg -> "AdminMsg"
    | Ack -> "Ack"
    | ReqClose -> "ReqClose"
    | LReqOpen -> "ReqOpen"
    | LAckOpen -> "AckOpen"
    | LConnDenied -> "ConnectionDenied"
    | LAuth1 -> "LegacyAuth1"
    | LAuth2 -> "LegacyAuth2"
    | LAuth3 -> "LegacyAuth3"
    | LNewKey -> "NewKey"
    | LMemRemoved -> "MemRemoved"
    | LReqClose -> "LegacyReqClose")

let pp fmt = function
  | Msg { label; sender; recipient; content } ->
      Format.fprintf fmt "%a %a->%a: %a" pp_label label Field.pp_agent sender
        Field.pp_agent recipient Field.pp content
  | Oops f -> Format.fprintf fmt "Oops(%a)" Field.pp f

let content = function Msg { content; _ } -> content | Oops f -> f

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

let contents s =
  Set.fold (fun e acc -> Field.Set.add (content e) acc) s Field.Set.empty

(* One header byte per event — the label, sender and recipient of a
   message (15 * 3 * 3 codes), or 135 for an Oops — then its content. *)
let encode_set b s =
  Field.encode_int b (Set.cardinal s);
  Set.iter
    (fun e ->
      (match e with
      | Msg { label; sender; recipient; _ } ->
          Buffer.add_uint8 b
            ((9 * label_rank label) + (3 * agent_rank sender)
           + agent_rank recipient)
      | Oops _ -> Buffer.add_uint8 b 135);
      Field.encode b (content e))
    s
