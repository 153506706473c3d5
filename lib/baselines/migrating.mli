(** A dynamic (migrating) sequencer, as adopted by Horus and Transis
    (paper §2.2/§5).

    The sequencer role follows the senders: when member X's request is
    sequenced, the token moves to X, so X's subsequent messages are
    sequenced locally and cost a single multicast with no remote round
    trip.  The paper concludes in retrospect that "the performance
    gained by migrating the sequencer may be worth the additional
    complexity"; the ablation bench quantifies that trade-off on
    bursty senders.  Fixed membership, failure-free comparison
    protocol.

    Loss handling: senders resubmit until delivered (a member that is
    not the holder forwards a request, up to 8 hops), the holder
    sequences each message once, and a member nacks a gap once per
    data message that reveals it.  Liveness gap: members can lose
    track of the token.  With four members sending six messages each
    under [reorder], seed 2 delivers 5 of 24: members 0 and 1 each
    believe the other holds the token. *)

val make_group : Amoeba_flip.Flip.t list -> Node.t list
(** Node 0 holds the token initially. *)

val token_moves : Node.t -> int
(** Times the token arrived at this node. *)
