module Sexp = Qnet_util.Sexp
module Engine = Qnet_online.Engine

(* On-disk checkpoint format, version muerp-checkpoint/1:

     muerp-checkpoint/1
     (config "<fingerprint>")
     (muerp-engine-snapshot/3 ...)
     integrity <md5-hex> <byte-length>

   The integrity footer covers every byte before it, so a torn or
   truncated write (the crash cases a checkpoint exists to survive) is
   detected before any parsing.  Writes go to [path ^ ".tmp"] and
   rename into place, so the published file is always complete — the
   footer guards against out-of-band corruption and copies of a file
   that was still being written.

   The config fingerprint is an opaque caller-chosen string (the CLI
   folds its run-shaping flags into it); a restore under different
   flags fails here with a message naming both, rather than deep inside
   the engine.

   The footer digest doubles as the file's identity: incremental
   checkpoint chains (Chain) link each delta to its parent by quoting
   the parent's footer digest, which is why [save] and
   [write_with_footer] return it. *)

let version = "muerp-checkpoint/1"

(* Write [emit]'s output to [path] atomically, with the integrity
   footer appended.  The body is streamed — written to the tmp file,
   then digested by re-reading it through [Digest.channel] — so a
   snapshot of a 100k-switch network never has to exist as one
   in-memory string (Stdlib.Digest has no incremental feed API). *)
let write_with_footer ~path emit =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    (try emit oc
     with e ->
       close_out_noerr oc;
       raise e);
    close_out oc;
    let ic = open_in_bin tmp in
    let len = in_channel_length ic in
    let digest = Digest.to_hex (Digest.channel ic len) in
    close_in ic;
    let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 tmp in
    Printf.fprintf oc "integrity %s %d\n" digest len;
    close_out oc;
    Sys.rename tmp path;
    Ok digest
  with Sys_error m -> Error (Printf.sprintf "cannot write checkpoint: %s" m)

let save ~path ~config snap =
  write_with_footer ~path (fun oc ->
      output_string oc version;
      output_char oc '\n';
      Sexp.output oc (Sexp.list [ Sexp.atom "config"; Sexp.atom config ]);
      output_char oc '\n';
      Sexp.output oc (Engine.snapshot_to_sexp snap);
      output_char oc '\n')

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let data = really_input_string ic n in
    close_in ic;
    Ok data
  with
  | Sys_error m -> Error (Printf.sprintf "cannot read checkpoint: %s" m)
  | End_of_file -> Error (Printf.sprintf "cannot read checkpoint %s" path)

(* Split off the trailing "integrity <hex> <len>\n" footer and verify
   it against the preceding bytes; returns the body and its digest. *)
let verified_body path data =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let n = String.length data in
  if n = 0 then err "checkpoint %s is empty" path
  else if data.[n - 1] <> '\n' then
    err "checkpoint %s is truncated (no final newline)" path
  else
    let line_start =
      match String.rindex_from_opt data (n - 2) '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    let footer = String.sub data line_start (n - 1 - line_start) in
    match String.split_on_char ' ' footer with
    | [ "integrity"; hex; len ] -> (
        match int_of_string_opt len with
        | None -> err "checkpoint %s has a malformed integrity footer" path
        | Some len ->
            let body = String.sub data 0 line_start in
            if String.length body <> len then
              err
                "checkpoint %s is torn or truncated (expected %d bytes, \
                 found %d)"
                path len (String.length body)
            else if not (String.equal (Digest.to_hex (Digest.string body)) hex)
            then err "checkpoint %s fails its checksum (corrupt file)" path
            else Ok (body, hex))
    | _ ->
        err "checkpoint %s has no integrity footer (torn or truncated write)"
          path

let ( let* ) = Result.bind

let magic = "muerp-checkpoint"

let read_with_footer ~path =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* data = read_file path in
  (* Identify the file before integrity-checking it: a random file that
     merely lacks a footer should be called what it is, not "torn". *)
  let* () =
    if
      String.length data >= String.length magic
      && String.sub data 0 (String.length magic) = magic
    then Ok ()
    else if String.length data = 0 then err "checkpoint %s is empty" path
    else err "%s is not a muerp checkpoint file" path
  in
  verified_body path data

let load_verified ~path ~config =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* body, digest = read_with_footer ~path in
  match String.split_on_char '\n' body with
  | header :: config_line :: snapshot_line :: _ when header = version ->
      let* () =
        match Sexp.of_string config_line with
        | Ok (Sexp.List [ Sexp.Atom "config"; Sexp.Atom written ]) ->
            if String.equal written config then Ok ()
            else
              err
                "checkpoint %s was written under different flags (%s) than \
                 this run (%s)"
                path written config
        | Ok _ | Error _ ->
            err "checkpoint %s has a malformed config record" path
      in
      let* doc =
        match Sexp.of_string snapshot_line with
        | Ok doc -> Ok doc
        | Error m -> err "checkpoint %s: unreadable snapshot: %s" path m
      in
      let* snap =
        Result.map_error
          (fun m -> Printf.sprintf "checkpoint %s: %s" path m)
          (Engine.snapshot_of_sexp doc)
      in
      Ok (snap, digest)
  | header :: _
    when String.length header >= 16
         && String.sub header 0 16 = "muerp-checkpoint" ->
      err "checkpoint %s uses unsupported version %s (this build reads %s)"
        path header version
  | _ -> err "%s is not a muerp checkpoint file" path

let load ~path ~config = Result.map fst (load_verified ~path ~config)
