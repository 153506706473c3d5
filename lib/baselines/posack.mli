(** A positive-acknowledgement variant of the sequencer protocol
    (the design §2.2 argues against).

    Identical to Amoeba-PB except that every member immediately sends
    an acknowledgement for every sequenced broadcast back to the
    sequencer.  With n members each broadcast costs the sequencer n-1
    extra interrupts, and the near-simultaneous acknowledgements of a
    large group overflow its fixed-size receive ring — the "ack
    implosion" the paper's negative-acknowledgement scheme avoids.
    Fixed membership, failure-free: this is a benchmark foil, not a
    production protocol.

    Loss handling: the sequencer re-sends a message to each member
    whose positive acknowledgement is missing, and sequences a
    duplicated request once.  Liveness gap: a lost request is never
    retried; with four members sending six messages each under
    [bursty-light], seed 3 delivers 18 of 24. *)

val make_group : Amoeba_flip.Flip.t list -> Node.t list
(** Node 0 hosts the sequencer. *)

val acks_received : Node.t -> int
(** Positive acknowledgements processed by the sequencer (node 0). *)
