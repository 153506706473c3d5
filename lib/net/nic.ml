open Amoeba_sim

module Int_set = Set.Make (Int)

type t = {
  engine : Engine.t;
  cost : Cost_model.t;
  trace : Trace.t;
  net : Medium.t;
  port : Medium.port;
  station : int;
  host : string;
  cpu : Resource.t;
  alive : unit -> bool;
  tx_lock : Resource.t;
  ring : Frame.t Channel.t;
  mutable in_ring : int;
  mutable mc_groups : Int_set.t;
  mutable handler : (Frame.t -> unit) option;
  mutable n_rx_dropped : int;
  mutable n_rx : int;
  mutable n_interrupts : int;
}

let accepts t (frame : Frame.t) =
  match frame.dest with
  | Frame.Unicast id -> id = t.station
  | Frame.Broadcast -> true
  | Frame.Multicast g -> Int_set.mem g t.mc_groups

let on_wire_rx t frame =
  if t.alive () && accepts t frame then begin
    if t.in_ring >= t.cost.rx_ring_frames then
      t.n_rx_dropped <- t.n_rx_dropped + 1
    else begin
      t.in_ring <- t.in_ring + 1;
      Channel.send t.ring frame
    end
  end

(* Service process: one interrupt per buffered frame, driver work and
   a copy out of the Lance ring, then hand the frame up.  The ring
   slot frees only once the copy is done, so a slow host overflows
   the ring under load — as the paper's sequencer does at 4 KB. *)
let rec service t () =
  let frame = Channel.recv t.engine t.ring in
  let cost =
    Cost_model.jitter (Engine.rng t.engine)
      (t.cost.interrupt_ns + t.cost.driver_rx_ns
      + (frame.Frame.size_on_wire * t.cost.copy_ns_per_byte))
  in
  Resource.consume t.cpu cost;
  Trace.record t.trace t.engine ~layer:"ether" ~host:t.host cost;
  t.in_ring <- t.in_ring - 1;
  t.n_rx <- t.n_rx + 1;
  t.n_interrupts <- t.n_interrupts + 1;
  (if t.alive () then
     match t.handler with Some h -> h frame | None -> ());
  service t ()

let create engine cost trace net ~group ~station ~host ~cpu ~alive =
  let t_ref = ref None in
  (* A match, not Option.iter: this runs once per frame on the wire and
     a [fun t -> ...] capturing [frame] would allocate a closure per
     delivery. *)
  let rx frame =
    match !t_ref with Some t -> on_wire_rx t frame | None -> ()
  in
  let port = Medium.attach ~id:station net ~rx in
  let t =
    {
      engine;
      cost;
      trace;
      net;
      port;
      station;
      host;
      cpu;
      alive;
      tx_lock = Resource.create engine ~name:(host ^ ":tx");
      ring = Channel.create ();
      in_ring = 0;
      mc_groups = Int_set.empty;
      handler = None;
      n_rx_dropped = 0;
      n_rx = 0;
      n_interrupts = 0;
    }
  in
  t_ref := Some t;
  (* The service process belongs to the machine's lifecycle group, so a
     crash halts it (and any fiber it runs the rx handler in) outright
     rather than leaving it draining the ring behind a dead NIC gate. *)
  Engine.spawn ~group engine (service t);
  t

let station t = t.station
let set_handler t h = t.handler <- Some h
let join_multicast t g = t.mc_groups <- Int_set.add g t.mc_groups
let leave_multicast t g = t.mc_groups <- Int_set.remove g t.mc_groups

let send t frame =
  if not (t.alive ()) then `Dropped
  else begin
    let cost =
      Cost_model.jitter (Engine.rng t.engine)
        (t.cost.driver_tx_ns
        + (frame.Frame.size_on_wire * t.cost.copy_ns_per_byte))
    in
    Resource.consume t.cpu cost;
    Trace.record t.trace t.engine ~layer:"ether" ~host:t.host cost;
    Resource.acquire t.tx_lock;
    let wire_start = Engine.now t.engine in
    let outcome = Medium.transmit t.net t.port frame in
    Trace.record t.trace t.engine ~layer:"ether" ~host:"wire"
      (Engine.now t.engine - wire_start);
    Resource.release t.tx_lock;
    outcome
  end

let rx_dropped t = t.n_rx_dropped
let rx_frames t = t.n_rx
let interrupts t = t.n_interrupts
