(* Forked children that report back one line at a time.

   Every verification runs in a fresh child, as [dampi verify] runs in a
   fresh process: its heap peak and CPU time are its own, and no GC state
   carries over between repeats. The parent never verifies anything, so
   its heap stays small and a fork costs little. Nothing in the benchmark
   spawns a domain, which keeps [Unix.fork] legal throughout.

   Lines a child writes:
   - [ready]: its inputs are built (the parent times set-up up to here);
   - [m NAME VALUE]: a metric;
   - [ok] or [fail REASON]: its correctness check;
   - [note TEXT]: a line for the human-readable log on stderr. *)

(* [early] holds lines read while waiting for [ready]. *)
type child = { pid : int; ic : in_channel; mutable early : string list }

let emit oc fmt =
  Printf.ksprintf
    (fun s ->
      output_string oc s;
      output_char oc '\n';
      flush oc)
    fmt

let metric oc name v = emit oc "m %s %.17g" name v

(* Fork [body]; [close] lists descriptors the child must not keep open
   (other children's pipes and sockets), so end-of-file arrives on time. *)
let fork ?(close = []) body =
  let rd, wr = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) close;
      let oc = Unix.out_channel_of_descr wr in
      let code =
        match body oc with
        | () -> 0
        | exception e ->
            (try emit oc "fail raised %s" (Printexc.to_string e)
             with Sys_error _ -> ());
            1
      in
      (try close_out oc with Sys_error _ -> ());
      Unix._exit code
  | pid ->
      Unix.close wr;
      { pid; ic = Unix.in_channel_of_descr rd; early = [] }

let read_line c =
  match c.early with
  | l :: rest ->
      c.early <- rest;
      Some l
  | [] -> ( try Some (input_line c.ic) with End_of_file -> None)

type result = {
  metrics : (string * float) list;
  outcome : (unit, string) Stdlib.result;
  notes : string list;
}

(* Read every remaining line, then reap the child. A child that exits
   badly, or never says [ok], failed. *)
let finish c =
  let metrics = ref [] and fails = ref [] and ok = ref false and notes = ref [] in
  let rec loop () =
    match read_line c with
    | None -> ()
    | Some line ->
        (match String.split_on_char ' ' line with
        | [ "m"; name; v ] -> (
            match float_of_string_opt v with
            | Some v -> metrics := (name, v) :: !metrics
            | None -> fails := ("bad metric line " ^ line) :: !fails)
        | [ "ok" ] -> ok := true
        | "fail" :: rest -> fails := String.concat " " rest :: !fails
        | "note" :: rest -> notes := String.concat " " rest :: !notes
        | [ "ready" ] -> ()
        | _ -> fails := ("bad line " ^ line) :: !fails);
        loop ()
  in
  loop ();
  close_in c.ic;
  let status = snd (Unix.waitpid [] c.pid) in
  let fails =
    match status with
    | Unix.WEXITED 0 -> !fails
    | Unix.WEXITED n -> Printf.sprintf "child exited %d" n :: !fails
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
        Printf.sprintf "child killed by signal %d" n :: !fails
  in
  let outcome =
    match (fails, !ok) with
    | [], true -> Ok ()
    | [], false -> Error "child reported no verdict"
    | f, _ -> Error (String.concat "; " (List.rev f))
  in
  { metrics = List.rev !metrics; outcome; notes = List.rev !notes }

(* Block until the child's [ready] line; false if it ended first. Lines
   before it are kept for {!finish}. *)
let await_ready c =
  let rec loop acc =
    match read_line c with
    | None ->
        c.early <- List.rev acc;
        false
    | Some "ready" ->
        c.early <- List.rev acc;
        true
    | Some l -> loop (l :: acc)
  in
  loop []

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The peak major heap of this process so far, in MiB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0
