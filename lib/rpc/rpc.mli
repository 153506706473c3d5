(** Amoeba-style remote procedure call over FLIP.

    Amoeba supports exactly one point-to-point primitive — blocking
    RPC — and the paper repeatedly compares group-communication delay
    against it (a null RPC takes 2.8 ms on the measured hardware,
    0.1 ms slower than a null broadcast to a group of two).  This
    module provides that baseline on the same simulated substrate,
    plus [ForwardRequest] from the group interface (Table 1): a server
    may hand an in-flight request to another group member, which then
    replies directly to the client. *)

open Amoeba_flip
open Types_rpc

type server

val serve : Flip.t -> addr:Addr.t -> (bytes -> outcome) -> server
(** Registers an RPC server at [addr].  The handler runs in the
    server's own process and may block; it returns either a reply or
    a forward destination. *)

val requests_forwarded : server -> int

type client
(** A client endpoint: one FLIP address reused across calls, so reply
    routes stay cached (as a long-lived Amoeba process's port would).
    Supports concurrent calls from multiple threads. *)

val client : Flip.t -> client

val call :
  client ->
  dst:Addr.t ->
  ?timeout:Amoeba_sim.Time.t ->
  ?retries:int ->
  bytes ->
  (bytes, [ `Timeout | `No_route ]) result
(** Blocking call with at-most-once execution: retransmissions of the
    same request are answered from the server's reply cache, never
    re-executed. *)
