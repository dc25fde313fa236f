(** The common interface of the benchmark data structures.

    All the structures implement a concurrent ordered map from [int] keys
    to [int] values, as a functor over a {!Hpbrcu_core.Smr_intf.SCHEME}.
    {!OPS} is what a worker calls on a built map (the sharded map, which
    owns one domain per shard, offers only that); {!MAP} adds the [create]
    of a map over one caller-owned domain.  A session bundles the calling
    thread's scheme handle and shields; each worker creates one per
    structure it uses and must [close_session] before the thread exits (so
    epoch schemes stop waiting on it). *)

module type OPS = sig
  type t
  type session

  val session : t -> session
  (** Register the calling thread with the reclamation scheme and allocate
      its shields. *)

  val close_session : session -> unit

  val get : t -> session -> int -> bool
  (** Membership test (the paper's read operation). *)

  val insert : t -> session -> int -> int -> bool
  (** [insert t s k v] returns [false] if [k] was already present. *)

  val remove : t -> session -> int -> bool
  (** [remove t s k] returns [false] if [k] was absent. *)

  val cleanup : t -> session -> unit
  (** Physically unlink any logically-deleted remnants so their blocks get
      retired; used by tests/harness before checking reclamation
      accounting. *)
end

(** A map over one reclamation domain. *)
module type MAP = sig
  type domain
  (** The reclamation domain the map retires into
      ({!Hpbrcu_core.Smr_intf.SCHEME.domain}). *)

  include OPS

  val create : domain -> t
  (** An empty map whose sessions register with, and whose removals retire
      into, the given domain.  The caller owns the domain and destroys it
      after the map's last session has closed. *)
end

(** A data-structure functor: the map over any scheme's domains. *)
module type MAKE = functor (X : Hpbrcu_core.Smr_intf.SCHEME) ->
  MAP with type domain = X.domain
