(* Leveled logger writing to stderr. Logging is off the replay hot path
   (the distributed layer logs per-connection events, not per-message), so
   one lock around the write is enough to keep lines from different
   domains whole. *)

type level = Error | Warn | Info | Debug

let level_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii s with
  | "quiet" | "off" | "none" -> Ok None
  | "error" | "err" -> Ok (Some Error)
  | "warn" | "warning" -> Ok (Some Warn)
  | "info" -> Ok (Some Info)
  | "debug" -> Ok (Some Debug)
  | _ ->
      Error
        (Printf.sprintf
           "bad log level %S (expected quiet, error, warn, info or debug)" s)

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

type src = { name : string }

let src name = { name }
let level = ref (Some Warn)
let set_level l = level := l

let enabled lvl =
  match !level with
  | Some l -> severity lvl <= severity l
  | None -> false

let lock = Mutex.create ()

let emit s lvl text =
  Mutex.protect lock (fun () ->
      (* stderr may be a pipe whose reader vanished; losing a log line is
         fine, killing a long verify (or the serve daemon) is not. *)
      try
        Printf.eprintf "dampi [%s] %s: %s\n%!" (level_to_string lvl) s.name text
      with Sys_error _ -> ())

let msg s lvl k =
  if enabled lvl then
    k (fun fmt -> Format.kasprintf (fun text -> emit s lvl text) fmt)

module type LOG = sig
  val err : ((('a, Format.formatter, unit, unit) format4 -> 'a) -> unit) -> unit
  val warn : ((('a, Format.formatter, unit, unit) format4 -> 'a) -> unit) -> unit
  val info : ((('a, Format.formatter, unit, unit) format4 -> 'a) -> unit) -> unit

  val debug :
    ((('a, Format.formatter, unit, unit) format4 -> 'a) -> unit) -> unit
end

let src_log s : (module LOG) =
  (module struct
    let err k = msg s Error k
    let warn k = msg s Warn k
    let info k = msg s Info k
    let debug k = msg s Debug k
  end)
