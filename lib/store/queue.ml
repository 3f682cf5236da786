open Byteskit

let ( let* ) = Cursor.( let* )

type entry = { seq : int; epoch : int; payload : string }

type state = { next_seq : int; floor : int; pending : entry list }

let empty_state = { next_seq = 0; floor = 0; pending = [] }

type record =
  | Push of entry
  | Ack of { upto : int }
  | Drop of { seq : int }
  | Snapshot of state

(* --- record codec and fold --- *)

let encode_entry w { seq; epoch; payload } =
  Cursor.Writer.u32 w seq;
  Cursor.Writer.u32 w epoch;
  Cursor.Writer.bytes w payload

let encode w = function
  | Push e ->
      Cursor.Writer.u8 w 1;
      encode_entry w e
  | Ack { upto } ->
      Cursor.Writer.u8 w 2;
      Cursor.Writer.u32 w upto
  | Drop { seq } ->
      Cursor.Writer.u8 w 3;
      Cursor.Writer.u32 w seq
  | Snapshot { next_seq; floor; pending } ->
      Cursor.Writer.u8 w 4;
      Cursor.Writer.u32 w next_seq;
      Cursor.Writer.u32 w floor;
      Cursor.Writer.u32 w (List.length pending);
      List.iter (encode_entry w) pending

let decode_entry r =
  let* seq = Cursor.Reader.u32 r in
  let* epoch = Cursor.Reader.u32 r in
  let* payload = Cursor.Reader.bytes r in
  Ok { seq; epoch; payload }

let decode r =
  let* tag = Cursor.Reader.u8 r in
  match tag with
  | 1 ->
      let* e = decode_entry r in
      Ok (Push e)
  | 2 ->
      let* upto = Cursor.Reader.u32 r in
      Ok (Ack { upto })
  | 3 ->
      let* seq = Cursor.Reader.u32 r in
      Ok (Drop { seq })
  | 4 ->
      let* next_seq = Cursor.Reader.u32 r in
      let* floor = Cursor.Reader.u32 r in
      let* n = Cursor.Reader.u32 r in
      if n > 1_000_000 then Error (`Malformed "snapshot too large")
      else
        let rec entries acc k =
          if k = 0 then Ok (List.rev acc)
          else
            let* e = decode_entry r in
            entries (e :: acc) (k - 1)
        in
        let* pending = entries [] n in
        Ok (Snapshot { next_seq; floor; pending })
  | n -> Error (`Malformed (Printf.sprintf "unknown queue tag %d" n))

let apply st = function
  | Snapshot s -> s
  | Push e ->
      let next_seq = max st.next_seq (e.seq + 1) in
      if e.seq < st.floor || List.exists (fun p -> p.seq = e.seq) st.pending
      then { st with next_seq }
      else { st with next_seq; pending = st.pending @ [ e ] }
  | Ack { upto } ->
      let floor = max st.floor upto in
      {
        st with
        floor;
        pending = List.filter (fun e -> e.seq >= floor) st.pending;
      }
  | Drop { seq } ->
      { st with pending = List.filter (fun e -> e.seq <> seq) st.pending }

include (
  Log.Make (struct
    type nonrec record = record
    type nonrec state = state

    let empty_state = empty_state
    let apply = apply
    let snapshot st = Snapshot st
    let encode = encode
    let decode = decode
    let magic = "EDLQ"
    let mac_key = "enclaves-deliver"
    let compact_every = 64
    let file = "queue"
  end) :
    Log.S with type record := record and type state := state)

(* --- the delivery operations --- *)

let pending t = (state t).pending
let floor t = (state t).floor
let next_seq t = (state t).next_seq
let depth t = List.length (pending t)

let push t ~epoch payload =
  let e = { seq = next_seq t; epoch; payload } in
  append t (Push e);
  e

let ack t ~upto = if upto > floor t then append t (Ack { upto })

let drop t ~seq =
  if List.exists (fun e -> e.seq = seq) (pending t) then append t (Drop { seq })
