(** Leveled logging to [stderr].

    Replaces ad-hoc [Printf.eprintf] in the distributed layer. Enabled
    records are written to [stderr] as [dampi [LEVEL] SRC: MSG]; the
    default level is [Warn], so operational warnings — fallback-local,
    lost workers, redial notices — stay visible without any setup, while
    [info] and [debug] chatter needs an explicit [--log-level]. *)

type level = Error | Warn | Info | Debug

val level_of_string : string -> (level option, string) result
(** Accepts ["quiet"]/["off"] ([Ok None]) and
    ["error"|"warn"|"warning"|"info"|"debug"]; anything else is
    [Error msg]. *)

val set_level : level option -> unit
(** [None] silences everything. Default: [Some Warn]. *)

type src
(** A named log source, e.g. ["dampi.coordinator"]. *)

val src : string -> src

(** Per-source convenience module mirroring [Logs.src_log]. Each function
    takes a thunk [fun m -> m "fmt" ...] that is not run when its level is
    disabled, so disabled logging costs one branch. *)
module type LOG = sig
  val err : ((('a, Format.formatter, unit, unit) format4 -> 'a) -> unit) -> unit
  val warn : ((('a, Format.formatter, unit, unit) format4 -> 'a) -> unit) -> unit
  val info : ((('a, Format.formatter, unit, unit) format4 -> 'a) -> unit) -> unit

  val debug :
    ((('a, Format.formatter, unit, unit) format4 -> 'a) -> unit) -> unit
end

val src_log : src -> (module LOG)
