(** The Chang–Maxemchuk token-site reliable broadcast (paper §6).

    The comparison baseline the Amoeba protocol was designed against:
    every data message is {e broadcast}; a distinguished {e token
    site} broadcasts an acknowledgement carrying the sequence number,
    and the token-site role rotates to the next member on every
    acknowledgement.  Consequences measured in the benches:

    - 2 broadcasts per message (sometimes 3 with an explicit token
      transfer), versus Amoeba-PB's 1 point-to-point + 1 multicast;
    - every broadcast interrupts all other members, so each message
      costs at least 2(n-1) interrupts versus Amoeba's n.

    Loss handling: senders retransmit their data until it is
    delivered; members nack a gap until the member with index
    [seq mod n] repairs it from its history.  Only a fresh
    acknowledgement moves the token, and a token site sequences only
    once it has delivered up to its next sequence number, so no
    message is sequenced twice.  There is no token-site regeneration.

    Liveness gap: a lost token-passing acknowledgement stalls the group
    (the new token site never learns it holds the token).  With four
    members sending six messages each under [bursty-light], seed 5
    delivers 7 of 24 and seed 7 14 of 24. *)

val make_group : Amoeba_flip.Flip.t list -> Node.t list
(** The initial token site is node 0. *)
