(** The ten reclamation schemes benchmarked in §6 (plus HE and IBR, which
    complete Table 2), as first-class {!Hpbrcu_core.Smr_intf.SCHEME}
    implementations keyed by canonical name, and the named configs the
    harnesses create their domains under.

    A scheme here is stateless: every harness [create]s the domains of its
    cell from an {!impls} entry and a config — the paper's parameters
    ({!Hpbrcu_core.Config.default}: 128-retirement batches, force
    threshold 2; NBR-Large: {!Hpbrcu_core.Config.large_batch}, 8192) or
    one of the tunings below — and [destroy]s them when the cell ends. *)

module Config = Hpbrcu_core.Config

(** Small-batch tuning for the scaled long-running-operation experiments:
    the paper's key ranges (2^18-2^29) shrink by ~2^10 in this container,
    so the 128-retirement batch shrinks proportionally — with the paper's
    batch, every scheme's footprint would be dominated by the batch floor
    and the growth the experiment demonstrates would be invisible. *)
let small_cfg =
  { Config.default with batch = 32; max_local_tasks = 16; backup_period = 32; max_steps = 32 }

(** Hunt tuning (lib/check): tiny batches and a hair-trigger force
    threshold so the interesting reclamation machinery — flushes, forced
    epoch advances, neutralization signals — fires every few operations
    instead of every few thousand, maximizing what a short fuzzed schedule
    can reach.  Each hunt case [create]s a fresh domain under this config
    and [destroy]s it at census time, so no state survives across cases. *)
let hunt_cfg =
  {
    Config.default with
    batch = 16;
    max_local_tasks = 4;
    backup_period = 16;
    max_steps = 16;
    force_threshold = 1;
  }

(* Planted bugs for mutation-testing the hunt itself (never part of any
   benchmark suite).  [hunt_nomask_cfg] drops BRCU's Mask (Algorithm 6) so
   a self-neutralization can abort a physical-deletion region mid-chain;
   [hunt_nodb_cfg] drops §4.3's double buffering so rollbacks can tear
   Traverse checkpoints. *)
let hunt_nomask_cfg = { hunt_cfg with abort_masking = false }
let hunt_nodb_cfg = { hunt_cfg with double_buffering = false }

(** First-class scheme implementations, keyed by canonical name: [create]
    as many independent domains of a scheme as needed and [destroy] them
    when done. *)
let impls : (string * (module Hpbrcu_core.Smr_intf.SCHEME)) list =
  [
    ("NR", (module Nr.Impl));
    ("RCU", (module Ebr.Impl));
    ("HP", (module Hp.Impl));
    ("HP++", (module Hppp.Impl));
    ("PEBR", (module Pebr.Impl));
    ("NBR", (module Nbr.Impl));
    ("VBR", (module Vbr.Impl));
    ("HP-RCU", (module Hp_rcu.Impl));
    ("HP-BRCU", (module Hp_brcu.Impl));
    ("HE", (module He.Impl));
    ("IBR", (module Ibr.Impl));
  ]

let find_impl name = List.assoc_opt name impls
