open Sym_crypto
module F = Wire.Frame
module P = Wire.Payload

module StringSet = Set.Make (String)

type t = {
  mutable frames : F.t list;  (* decoded wire observations *)
  mutable key_material : StringSet.t;  (* raw 16-byte key strings *)
  mutable plaintexts : StringSet.t;
  mutable observed : int;
}

let create () =
  {
    frames = [];
    key_material = StringSet.empty;
    plaintexts = StringSet.empty;
    observed = 0;
  }

let add_key t key = t.key_material <- StringSet.add (Key.raw key) t.key_material

let observe t bytes =
  t.observed <- t.observed + 1;
  match F.decode bytes with
  | Ok frame -> t.frames <- frame :: t.frames
  | Error _ -> ()

let observe_trace t trace =
  List.iter (observe t) (Netsim.Trace.payloads trace)

(* Associated-data contexts a frame's body might have been sealed
   under: header-bound (improved), empty (legacy), group (app/relay). *)
let ad_candidates (frame : F.t) =
  [
    F.ad frame;
    "";
    "group:" ^ F.label_to_string frame.F.label;
  ]

(* A key can serve any protocol role, but [Aead] never reads its kind:
   one key per raw string opens everything any kind would. *)
let keys t =
  StringSet.fold (fun raw acc -> Key.of_raw Key.Session raw :: acc)
    t.key_material []

(* Extract key material carried inside a recovered plaintext. *)
let harvest_keys t plaintext =
  let add raw =
    if String.length raw = Key.size then
      t.key_material <- StringSet.add raw t.key_material
  in
  (match P.decode_auth_key_dist plaintext with
  | Ok { P.ka; _ } -> add ka
  | Error _ -> ());
  (match P.decode_legacy_auth2 plaintext with
  | Ok { P.ka; kg; _ } ->
      add ka;
      add kg
  | Error _ -> ());
  (match P.decode_legacy_new_key plaintext with
  | Ok { P.kg; _ } -> add kg
  | Error _ -> ());
  match P.decode_admin_body plaintext with
  | Ok { P.x = Wire.Admin.New_group_key { key; _ }; _ } -> add key
  | Ok _ | Error _ -> ()

let try_open t keys (frame : F.t) =
  match Aead.decode frame.F.body with
  | Error _ -> ()
  | Ok sealed ->
      List.iter
        (fun key ->
          List.iter
            (fun ad ->
              match Aead.open_ ~key ~ad sealed with
              | Ok plaintext ->
                  if not (StringSet.mem plaintext t.plaintexts) then begin
                    t.plaintexts <- StringSet.add plaintext t.plaintexts;
                    harvest_keys t plaintext
                  end
              | Error `Auth_failure -> ())
            (ad_candidates frame))
        keys

let saturate t =
  (* Iterate until no new keys or plaintexts appear: recovered
     plaintexts can carry keys that unlock earlier ciphertexts. Keys
     harvested during a pass are tried from the next one. *)
  let rec loop () =
    let keys_before = StringSet.cardinal t.key_material in
    let plain_before = StringSet.cardinal t.plaintexts in
    let keys = keys t in
    List.iter (try_open t keys) t.frames;
    if
      StringSet.cardinal t.key_material <> keys_before
      || StringSet.cardinal t.plaintexts <> plain_before
    then loop ()
  in
  loop ()

let knows_key t key = StringSet.mem (Key.raw key) t.key_material

let plaintexts t = StringSet.elements t.plaintexts

let decrypt_app t bytes =
  match F.decode bytes with
  | Error _ -> None
  | Ok frame when frame.F.label <> F.App_data -> None
  | Ok frame ->
      let try_key raw acc =
        match acc with
        | Some _ -> acc
        | None -> (
            let key = Key.of_raw Key.Group raw in
            match Enclaves.Sealed_channel.open_group ~key frame with
            | Ok plaintext -> (
                match P.decode_app_data plaintext with
                | Ok { P.author; body } -> Some (author, body)
                | Error _ -> None)
            | Error _ -> None)
      in
      StringSet.fold try_key t.key_material None

let stats t =
  (t.observed, StringSet.cardinal t.key_material, StringSet.cardinal t.plaintexts)
