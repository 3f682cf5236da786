open Byteskit

let ( let* ) = Cursor.( let* )

type record =
  | Session_established of { member : Types.agent; key : string }
  | Session_closed of { member : Types.agent }
  | Epoch_bump of { key : string; epoch : int }
  | Snapshot of state

and state = {
  sessions : (Types.agent * string) list;
  group_key : (string * int) option;
  next_epoch : int;
}

let empty_state = { sessions = []; group_key = None; next_epoch = 1 }

(* --- record codec and fold --- *)

let encode w = function
  | Session_established { member; key } ->
      Cursor.Writer.u8 w 1;
      Cursor.Writer.bytes w member;
      Cursor.Writer.bytes w key
  | Session_closed { member } ->
      Cursor.Writer.u8 w 2;
      Cursor.Writer.bytes w member
  | Epoch_bump { key; epoch } ->
      Cursor.Writer.u8 w 3;
      Cursor.Writer.bytes w key;
      Cursor.Writer.u32 w epoch
  | Snapshot { sessions; group_key; next_epoch } ->
      Cursor.Writer.u8 w 4;
      Cursor.Writer.u32 w (List.length sessions);
      List.iter
        (fun (member, key) ->
          Cursor.Writer.bytes w member;
          Cursor.Writer.bytes w key)
        sessions;
      (match group_key with
      | None -> Cursor.Writer.u8 w 0
      | Some (key, epoch) ->
          Cursor.Writer.u8 w 1;
          Cursor.Writer.bytes w key;
          Cursor.Writer.u32 w epoch);
      Cursor.Writer.u32 w next_epoch

let decode r =
  let* tag = Cursor.Reader.u8 r in
  match tag with
  | 1 ->
      let* member = Cursor.Reader.bytes r in
      let* key = Cursor.Reader.bytes r in
      Ok (Session_established { member; key })
  | 2 ->
      let* member = Cursor.Reader.bytes r in
      Ok (Session_closed { member })
  | 3 ->
      let* key = Cursor.Reader.bytes r in
      let* epoch = Cursor.Reader.u32 r in
      Ok (Epoch_bump { key; epoch })
  | 4 ->
      let* n = Cursor.Reader.u32 r in
      if n > 1_000_000 then Error (`Malformed "snapshot too large")
      else
        let rec sessions acc k =
          if k = 0 then Ok (List.rev acc)
          else
            let* member = Cursor.Reader.bytes r in
            let* key = Cursor.Reader.bytes r in
            sessions ((member, key) :: acc) (k - 1)
        in
        let* sessions = sessions [] n in
        let* flag = Cursor.Reader.u8 r in
        let* group_key =
          match flag with
          | 0 -> Ok None
          | 1 ->
              let* key = Cursor.Reader.bytes r in
              let* epoch = Cursor.Reader.u32 r in
              Ok (Some (key, epoch))
          | _ -> Error (`Malformed "bad group-key flag")
        in
        let* next_epoch = Cursor.Reader.u32 r in
        Ok (Snapshot { sessions; group_key; next_epoch })
  | n -> Error (`Malformed (Printf.sprintf "unknown journal tag %d" n))

let apply st = function
  | Snapshot s -> s
  | Session_established { member; key } ->
      {
        st with
        sessions =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            ((member, key) :: List.remove_assoc member st.sessions);
      }
  | Session_closed { member } ->
      { st with sessions = List.remove_assoc member st.sessions }
  | Epoch_bump { key; epoch } ->
      {
        st with
        group_key = Some (key, epoch);
        next_epoch = max st.next_epoch (epoch + 1);
      }

include (
  Store.Log.Make (struct
    type nonrec record = record
    type nonrec state = state

    let empty_state = empty_state
    let apply = apply
    let snapshot st = Snapshot st
    let encode = encode
    let decode = decode
    let magic = "EJNL"
    let mac_key = "enclaves-journal"
    let compact_every = 256
    let file = "journal"
  end) :
    Store.Log.S with type record := record and type state := state)
