(* Every metric the benchmark reports, as BENCHMARK.json lists them. A
   per-layer metric also names the end-to-end metric, and the workloads, it
   should move; BENCHMARK.json has no field for that, so it lives here and
   the traced run prints it next to each value. *)

type metric = {
  name : string;
  unit_ : string;
  better : string;  (* "lower" or "higher" *)
  moves : string;  (* per-layer only: the end-to-end metric it should move *)
}

let m ?(moves = "") name unit_ better = { name; unit_; better; moves }

let end_to_end =
  [
    m "verify_s" "s" "lower";
    m "interleavings_per_s" "1/s" "higher";
    m "cpu_s" "s" "lower";
    m "peak_heap_mb" "MB" "lower";
    m "setup_s" "s" "lower";
  ]

(* The wire layers come from adlb2-cold's traced run, which also drives the
   walk through the coordinator and a forked worker; distributed
   verification has no timed workload. *)
let distributed = "verify --distribute (untimed; adlb2-cold trace)"

let per_layer =
  [
    (* replay layers: the runner the explorer is handed, timed around it *)
    m "replay.count" "count" "lower" ~moves:"verify_s on adlb2-cold";
    m "replay.share" "ratio" "lower" ~moves:"verify_s on adlb2-cold";
    m "replay.us_p50" "us" "lower" ~moves:"verify_s on adlb2-cold";
    m "replay.us_p99" "us" "lower" ~moves:"verify_s on adlb2-cold";
    m "replay.setup_us" "us" "lower" ~moves:"verify_s on adlb2-cold";
    m "runtime.run_us" "us" "lower" ~moves:"verify_s on adlb2-cold";
    m "runtime.self_us" "us" "lower" ~moves:"verify_s on adlb2-cold";
    m "interpose.self_us" "us" "lower" ~moves:"verify_s on adlb2-cold";
    m "replay.post_us" "us" "lower" ~moves:"verify_s on adlb2-cold";
    m "replay.minor_words" "words" "lower" ~moves:"cpu_s on adlb2-cold";
    m "interpose.calls" "count" "lower" ~moves:"verify_s on adlb2-cold";
    m "runtime.calls" "count" "lower" ~moves:"verify_s on adlb2-cold";
    m "mpi.match_attempts" "count" "lower" ~moves:"verify_s on adlb2-cold";
    m "mpi.deadlock_checks" "count" "lower" ~moves:"verify_s on adlb2-cold";
    m "dampi.clock_merges" "count" "lower" ~moves:"verify_s on adlb2-cold";
    m "dampi.piggyback_bytes" "bytes" "lower" ~moves:"verify_s on adlb2-cold";
    m "dampi.epochs_completed" "count" "lower" ~moves:"verify_s on adlb2-cold";
    (* walk layers: re-driven one call at a time on the workload's inputs *)
    m "explorer.self_us" "us" "lower" ~moves:"verify_s on adlb2-warm, adlb2-cold";
    m "prune.expand_us" "us" "lower" ~moves:"verify_s on adlb2-cold, adlb2-warm";
    m "prune.seen_us" "us" "lower" ~moves:"verify_s on adlb2-cold, adlb2-warm";
    m "prune.children_suppressed" "count" "higher" ~moves:"verify_s on adlb2-cold";
    m "prune.duplicates" "count" "lower" ~moves:"verify_s on adlb2-cold";
    m "cache.find_us" "us" "lower" ~moves:"verify_s on adlb2-warm";
    m "cache.add_us" "us" "lower" ~moves:"setup_s on adlb2-warm";
    m "cache.load_s" "s" "lower" ~moves:"verify_s on adlb2-warm";
    m "cache.save_s" "s" "lower" ~moves:"verify_s on adlb2-warm";
    m "cache.hit_ratio" "ratio" "higher" ~moves:"verify_s on adlb2-warm";
    m "cache.sidecar_bytes" "bytes" "lower" ~moves:"verify_s and setup_s on adlb2-warm";
    m "checkpoint.schedule_key_us" "us" "lower" ~moves:"verify_s on adlb2-cold, adlb2-warm";
    m "checkpoint.save_s" "s" "lower" ~moves:"verify_s on adlb2-warm";
    m "scheduler.item_us" "us" "lower" ~moves:"verify_s on adlb2-cold, adlb2-warm";
    (* wire layers *)
    m "worker.busy_share" "ratio" "higher" ~moves:("time-to-report of " ^ distributed);
    m "worker.cpu_s" "s" "lower" ~moves:("CPU of " ^ distributed);
    m "coordinator.cpu_s" "s" "lower" ~moves:("CPU of " ^ distributed);
    m "wire.bytes_per_interleaving" "bytes" "lower" ~moves:("time-to-report of " ^ distributed);
    m "wire.frames_per_interleaving" "count" "lower" ~moves:("time-to-report of " ^ distributed);
    m "wire.encode_us" "us" "lower" ~moves:("time-to-report of " ^ distributed);
    m "wire.decode_us" "us" "lower" ~moves:("time-to-report of " ^ distributed);
    m "coordinator.leases" "count" "lower" ~moves:("time-to-report of " ^ distributed);
    m "coordinator.items_per_lease" "count" "higher" ~moves:("time-to-report of " ^ distributed);
    (* the traced run itself *)
    m "trace.layers_s" "s" "lower" ~moves:"sum of named layer self times";
    m "trace.wall_s" "s" "lower" ~moves:"traced verification wall";
    m "trace.coverage_pct" "%" "higher" ~moves:"share of the wall the layers explain";
    m "trace.overhead" "ratio" "lower" ~moves:"traced over untraced verify_s";
    m "trace.fidelity_checked" "count" "higher" ~moves:"run records compared with the shipped runner";
  ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
