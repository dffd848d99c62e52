(** Per-domain shard table: one private ['a] per recording domain.

    The recording domain reaches its own shard with one [Atomic] read and
    an array index, so steady-state recording takes no lock and allocates
    nothing; readers fold over every shard created so far.  A shard is
    created on its domain's first touch; the table is grown under a lock
    and published through the [Atomic], and growth copies the shard
    {e references}, so an update racing a growth lands in a shard the new
    table also points at and nothing is lost.  A domain's plain writes into
    its shard become visible to readers at its next synchronising
    operation (e.g. the pool's task-completion edge). *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create make]: [make] builds a fresh shard on a domain's first touch. *)

val get : 'a t -> 'a
(** The calling domain's shard. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Every shard created so far, in domain-id order. *)
