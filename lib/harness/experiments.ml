open Amoeba_sim
open Amoeba_net
open Amoeba_core
module T = Types

type delay_result = {
  mean_ms : float;
  min_ms : float;
  max_ms : float;
  samples : int;
}

type throughput_result = {
  msgs_per_sec : float;
  rx_dropped : int;
  retransmissions : int;
  meaningful : bool;
}

type multigroup_result = {
  total_msgs_per_sec : float;
  ether_utilisation : float;
  collisions : int;
}

type baseline_protocol = Amoeba_pb | Amoeba_bb | Cm_token | Pos_ack | Migrating

let baseline_name = function
  | Amoeba_pb -> "Amoeba PB"
  | Amoeba_bb -> "Amoeba BB"
  | Cm_token -> "Chang-Maxemchuk"
  | Pos_ack -> "positive acks"
  | Migrating -> "migrating seq"

(* Consume every member's delivery stream so the event channels do not
   grow without bound (and so receive-side user costs are charged, as
   in the paper's experiments where all members call
   ReceiveFromGroup). *)
let drain cl recv =
  Cluster.spawn cl (fun () ->
      let rec loop () =
        ignore (recv ());
        loop ()
      in
      loop ())

let drain_events cl g = drain cl (fun () -> Api.receive_from_group g)

(* A closed-loop sender: calls [f] back to back until [deadline]. *)
let send_until cl ~deadline f =
  Cluster.spawn cl (fun () ->
      let rec loop () =
        if Cluster.now cl < deadline then begin
          f ();
          loop ()
        end
      in
      loop ())

let build_group ?(resilience = 0) ?(send_method = T.Pb) ?history ?(base = 0) cl
    ~n =
  let creator =
    Api.create_group (Cluster.flip cl base) ~resilience ~send_method ?history ()
  in
  let addr = Api.group_address creator in
  let joiners =
    List.init (n - 1) (fun i ->
        match
          Api.join_group
            (Cluster.flip cl (base + i + 1))
            ~resilience ~send_method ?history addr
        with
        | Ok g -> g
        | Error e -> failwith ("join failed: " ^ T.error_to_string e))
  in
  creator :: joiners

let broadcast_delay ?(cost = Cost_model.default) ?(samples = 20)
    ?(resilience = 0) ?(net = Medium.clean) ?(fabric = Medium.Shared) ~n ~size
    ~send_method () =
  let cl = Cluster.create ~cost ~fabric ~n:(max n 2) () in
  let result = ref { mean_ms = 0.; min_ms = 0.; max_ms = 0.; samples = 0 } in
  Cluster.spawn cl (fun () ->
      let groups = build_group ~resilience ~send_method cl ~n in
      List.iter (drain_events cl) groups;
      (* Adversarial conditions apply to the measurement loop only;
         setup runs on a quiet net, like the paper's warm testbed. *)
      if net <> Medium.clean then Medium.set_conditions cl.Cluster.net net;
      (* The paper measures a sender on a different machine than the
         sequencer. *)
      let sender = if n > 1 then List.nth groups 1 else List.hd groups in
      let payload = Bytes.create size in
      for _ = 1 to 5 do
        ignore (Api.send_to_group sender payload)
      done;
      let stats = Stats.create () in
      for _ = 1 to samples do
        let t0 = Cluster.now cl in
        (match Api.send_to_group sender payload with
        | Ok _ -> Stats.add stats (Time.to_ms (Cluster.now cl - t0))
        | Error e ->
            (* Under injected loss a send may exhaust its bounded
               retries; that sample is simply not a delay.  On a clean
               net a failure is a real bug. *)
            if net = Medium.clean then
              failwith ("send failed: " ^ T.error_to_string e));
        (* A short pause between sends, as in a measurement loop. *)
        Engine.sleep cl.Cluster.engine (Time.us 200)
      done;
      result :=
        {
          mean_ms = Stats.mean stats;
          min_ms = Stats.min_value stats;
          max_ms = Stats.max_value stats;
          samples = Stats.count stats;
        });
  Cluster.run ~until:(Time.sec 600) cl;
  !result

let sum_rx_dropped cl =
  Array.fold_left
    (fun acc m -> acc + Nic.rx_dropped (Machine.nic m))
    0 cl.Cluster.machines

let group_throughput ?(cost = Cost_model.default) ?(duration_ms = 2_000)
    ?(resilience = 0) ?history ?senders ~n ~size ~send_method () =
  let cl = Cluster.create ~cost ~n:(max n 2) () in
  let measured = ref (0., 0, 0) in
  let deadline = Time.ms duration_ms in
  let warmup = deadline / 4 in
  Cluster.spawn cl (fun () ->
      let groups = build_group ~resilience ~send_method ?history cl ~n in
      List.iter (drain_events cl) groups;
      let payload = Bytes.create size in
      List.iteri
        (fun i g ->
          if Option.fold ~none:true ~some:(List.mem i) senders then
            send_until cl ~deadline (fun () ->
                ignore (Api.send_to_group g payload)))
        groups;
      let sequencer = List.hd groups in
      Cluster.spawn cl (fun () ->
          Engine.sleep cl.Cluster.engine warmup;
          let c0 = Kernel.next_expected (Api.kernel sequencer) in
          let d0 = sum_rx_dropped cl in
          Engine.sleep cl.Cluster.engine (deadline - warmup);
          let c1 = Kernel.next_expected (Api.kernel sequencer) in
          let d1 = sum_rx_dropped cl in
          let retrans =
            List.fold_left
              (fun acc g ->
                acc + (Kernel.stats (Api.kernel g)).Kernel.retransmissions)
              0 groups
          in
          let secs = Time.to_sec (deadline - warmup) in
          measured := (float_of_int (c1 - c0) /. secs, d1 - d0, retrans)));
  Cluster.run ~until:(deadline + Time.sec 1) cl;
  let rate, dropped, retrans = !measured in
  {
    msgs_per_sec = rate;
    rx_dropped = dropped;
    retransmissions = retrans;
    meaningful = float_of_int retrans < 0.1 *. rate *. Time.to_sec (deadline - warmup) +. 5.;
  }

let multigroup_throughput ?(duration_ms = 2_000) ~groups ~members () =
  let n = groups * members in
  let cl = Cluster.create ~n () in
  let deadline = Time.ms duration_ms in
  let warmup = deadline / 4 in
  let measured = ref (0., 0., 0) in
  Cluster.spawn cl (fun () ->
      let sequencers =
        List.init groups (fun g ->
            let mems = build_group ~base:(g * members) cl ~n:members in
            List.iter (drain_events cl) mems;
            List.iter
              (fun m ->
                send_until cl ~deadline (fun () ->
                    ignore (Api.send_to_group m Bytes.empty)))
              mems;
            List.hd mems)
      in
      Cluster.spawn cl (fun () ->
          Engine.sleep cl.Cluster.engine warmup;
          (* Measure utilisation over the same window as the message
             rate: the group-formation warmup used to dilute it. *)
          Medium.reset_utilisation_window cl.Cluster.net;
          let count () =
            List.fold_left
              (fun acc s -> acc + Kernel.next_expected (Api.kernel s))
              0 sequencers
          in
          let c0 = count () in
          Engine.sleep cl.Cluster.engine (deadline - warmup);
          let c1 = count () in
          let secs = Time.to_sec (deadline - warmup) in
          measured :=
            ( float_of_int (c1 - c0) /. secs,
              Medium.utilisation cl.Cluster.net,
              Medium.collisions cl.Cluster.net )));
  Cluster.run ~until:(deadline + Time.sec 1) cl;
  let rate, util, coll = !measured in
  { total_msgs_per_sec = rate; ether_utilisation = util; collisions = coll }

(* Figure 2 / Table 3: the critical path of one 0-byte PB SendToGroup
   in a group of 2.  The layer split is read off the cost model (it is
   a sum of deterministic per-packet constants); the total is
   cross-checked against the simulated delay. *)
let critical_path () =
  let c = Cost_model.default in
  let us ns = float_of_int ns /. 1_000. in
  let hdr = Cost_model.headers_total c in
  let wire = Cost_model.frame_time c ~bytes_on_wire:hdr in
  let copy = hdr * c.copy_ns_per_byte in
  let user = 2 * c.context_switch_ns in
  let group =
    c.group_send_ns + c.group_seq_ns + (2 * c.group_seq_member_ns)
    + c.group_deliver_ns
  in
  let flip = (2 * c.flip_tx_ns) + (2 * c.flip_rx_ns) in
  let ether =
    (* sender tx + wire + sequencer rx + sequencer tx + wire + sender rx *)
    (c.driver_tx_ns + copy) + wire
    + (c.interrupt_ns + c.driver_rx_ns + copy)
    + (c.driver_tx_ns + copy) + wire
    + (c.interrupt_ns + c.driver_rx_ns + copy)
  in
  let measured =
    (broadcast_delay ~samples:5 ~n:2 ~size:0 ~send_method:T.Pb ()).mean_ms
  in
  ( [ ("user", us user); ("group", us group); ("flip", us flip);
      ("ether", us ether) ],
    measured *. 1_000. )

let null_rpc_delay_ms () =
  let cl = Cluster.create ~n:2 () in
  let out = ref 0. in
  Cluster.spawn cl (fun () ->
      let flip1 = Cluster.flip cl 1 in
      let addr = Amoeba_flip.Flip.fresh_addr flip1 in
      let _server =
        Amoeba_rpc.Rpc.serve flip1 ~addr (fun _ ->
            Amoeba_rpc.Types_rpc.Reply Bytes.empty)
      in
      let client = Amoeba_rpc.Rpc.client (Cluster.flip cl 0) in
      ignore (Amoeba_rpc.Rpc.call client ~dst:addr Bytes.empty);
      let stats = Stats.create () in
      for _ = 1 to 10 do
        let t0 = Cluster.now cl in
        ignore (Amoeba_rpc.Rpc.call client ~dst:addr Bytes.empty);
        Stats.add stats (Time.to_ms (Cluster.now cl - t0))
      done;
      out := Stats.mean stats);
  Cluster.run ~until:(Time.sec 60) cl;
  !out

type baseline_result = {
  delay_ms : float;
  tput_per_sec : float;
  frames_per_msg : float;
  interrupts_per_msg : float;
}

(* A uniform view over Amoeba and the baseline protocols. *)
type proto_instance = {
  pi_send : int -> bytes -> unit;  (** by member index *)
  pi_count : unit -> int;  (** messages sequenced so far *)
}

(* A comparison protocol's group over [nodes], every member's
   deliveries drained as [drain_events] does for Amoeba's. *)
let baseline cl nodes ~events ~send ~delivered =
  let arr = Array.of_list nodes in
  Array.iter
    (fun nd -> drain cl (fun () -> Channel.recv cl.Cluster.engine (events nd)))
    arr;
  {
    pi_send = (fun i b -> send arr.(i) b);
    pi_count = (fun () -> delivered arr.(0));
  }

let instantiate cl ~n proto =
  let flips = Array.to_list (Array.sub cl.Cluster.flips 0 n) in
  match proto with
  | Amoeba_pb | Amoeba_bb ->
        let send_method = if proto = Amoeba_pb then T.Pb else T.Bb in
        let groups = build_group ~send_method cl ~n in
        List.iter (drain_events cl) groups;
        let arr = Array.of_list groups in
        {
          pi_send = (fun i b -> ignore (Api.send_to_group arr.(i) b));
          pi_count = (fun () -> Kernel.next_expected (Api.kernel arr.(0)));
        }
  | Cm_token ->
      let module B = Amoeba_baselines.Cm in
      baseline cl (B.make_group flips) ~events:B.events ~send:B.send
        ~delivered:B.delivered
  | Pos_ack ->
      let module B = Amoeba_baselines.Posack in
      baseline cl (B.make_group flips) ~events:B.events ~send:B.send
        ~delivered:B.delivered
  | Migrating ->
      let module B = Amoeba_baselines.Migrating in
      baseline cl (B.make_group flips) ~events:B.events ~send:B.send
        ~delivered:B.delivered

let baseline_compare ?(duration_ms = 1_500) ~n proto =
  (* Delay: one sender (member 1), quiet network. *)
  let delay, fpm, ipm =
    let cl = Cluster.create ~n () in
    let out = ref (0., 0., 0.) in
    Cluster.spawn cl (fun () ->
        let pi = instantiate cl ~n proto in
        for _ = 1 to 3 do
          pi.pi_send 1 Bytes.empty
        done;
        let frames0 = Medium.frames_delivered cl.Cluster.net in
        let intr0 =
          Nic.interrupts (Machine.nic (Cluster.machine cl (n - 1)))
        in
        let stats = Stats.create () in
        let k = 10 in
        for _ = 1 to k do
          let t0 = Cluster.now cl in
          pi.pi_send 1 Bytes.empty;
          Stats.add stats (Time.to_ms (Cluster.now cl - t0));
          Engine.sleep cl.Cluster.engine (Time.ms 2)
        done;
        Engine.sleep cl.Cluster.engine (Time.ms 100);
        let frames1 = Medium.frames_delivered cl.Cluster.net in
        let intr1 =
          Nic.interrupts (Machine.nic (Cluster.machine cl (n - 1)))
        in
        let per_msg a b = float_of_int (b - a) /. float_of_int k in
        out := (Stats.mean stats, per_msg frames0 frames1, per_msg intr0 intr1));
    Cluster.run ~until:(Time.sec 120) cl;
    !out
  in
  (* Throughput: every member sends continuously. *)
  let tput =
    let cl = Cluster.create ~n () in
    let deadline = Time.ms duration_ms in
    let warmup = deadline / 4 in
    let out = ref 0. in
    Cluster.spawn cl (fun () ->
        let pi = instantiate cl ~n proto in
        for i = 0 to n - 1 do
          send_until cl ~deadline (fun () -> pi.pi_send i Bytes.empty)
        done;
        Cluster.spawn cl (fun () ->
            Engine.sleep cl.Cluster.engine warmup;
            let c0 = pi.pi_count () in
            Engine.sleep cl.Cluster.engine (deadline - warmup);
            let c1 = pi.pi_count () in
            out := float_of_int (c1 - c0) /. Time.to_sec (deadline - warmup)));
    Cluster.run ~until:(deadline + Time.sec 1) cl;
    !out
  in
  { delay_ms = delay; tput_per_sec = tput; frames_per_msg = fpm;
    interrupts_per_msg = ipm }

let burst_delay ?(bursts = 5) ?(burst_len = 8) ~n which =
  let cl = Cluster.create ~n () in
  let out = ref 0. in
  Cluster.spawn cl (fun () ->
      let stats = Stats.create () in
      let proto = match which with `Static -> Amoeba_pb | `Migrating -> Migrating in
      let send = (instantiate cl ~n proto).pi_send 1 in
      send Bytes.empty;
      for _ = 1 to bursts do
        Engine.sleep cl.Cluster.engine (Time.ms 50);
        for _ = 1 to burst_len do
          let t0 = Cluster.now cl in
          send Bytes.empty;
          Stats.add stats (Time.to_ms (Cluster.now cl - t0))
        done
      done;
      out := Stats.mean stats);
  Cluster.run ~until:(Time.sec 120) cl;
  !out

(* Host software costs scaled by a factor; the wire stays physical. *)
let scaled_processing factor =
  let c = Cost_model.default in
  let f ns = int_of_float (factor *. float_of_int ns) in
  {
    c with
    interrupt_ns = f c.interrupt_ns;
    driver_tx_ns = f c.driver_tx_ns;
    driver_rx_ns = f c.driver_rx_ns;
    copy_ns_per_byte = f c.copy_ns_per_byte;
    context_switch_ns = f c.context_switch_ns;
    flip_tx_ns = f c.flip_tx_ns;
    flip_rx_ns = f c.flip_rx_ns;
    group_send_ns = f c.group_send_ns;
    group_seq_ns = f c.group_seq_ns;
    group_deliver_ns = f c.group_deliver_ns;
  }

(* A user-space implementation pays two extra kernel/user boundary
   crossings per packet on each of the send and receive paths. *)
let user_space_costs =
  let c = Cost_model.default in
  let extra = 2 * c.context_switch_ns in
  {
    c with
    group_send_ns = c.group_send_ns + extra;
    group_seq_ns = c.group_seq_ns + extra;
    group_deliver_ns = c.group_deliver_ns + extra;
  }

type load_point = {
  offered_per_sec : float;
  completed_per_sec : float;
  mean_delay_ms : float;
}

(* Open-loop Poisson arrivals: unlike the paper's closed-loop senders,
   offered load is independent of service time, so the sequencer's
   queue (and the delay) grows without bound past the knee. *)
let open_loop_load ?(duration_ms = 2_000) ~n ~rate_per_sec () =
  let cl = Cluster.create ~n () in
  let deadline = Time.ms duration_ms in
  let warmup = deadline / 4 in
  let stats = Stats.create () in
  let completed = ref 0 in
  let offered = ref 0 in
  Cluster.spawn cl (fun () ->
      let groups = build_group cl ~n in
      List.iter (drain_events cl) groups;
      let arr = Array.of_list groups in
      let rng = Engine.rng cl.Cluster.engine in
      let exp_gap () =
        let u = Random.State.float rng 1.0 in
        Time.of_us_float (-.log (max 1e-9 u) /. rate_per_sec *. 1_000_000.)
      in
      let rec arrivals i =
        if Cluster.now cl < deadline then begin
          Engine.sleep cl.Cluster.engine (exp_gap ());
          if Cluster.now cl < deadline then begin
            let g = arr.(i mod Array.length arr) in
            let in_window = Cluster.now cl >= warmup in
            if in_window then incr offered;
            Cluster.spawn cl (fun () ->
                let t0 = Cluster.now cl in
                match Api.send_to_group g Bytes.empty with
                | Ok _ ->
                    if in_window then begin
                      incr completed;
                      Stats.add stats (Time.to_ms (Cluster.now cl - t0))
                    end
                | Error _ -> ());
            arrivals (i + 1)
          end
        end
      in
      arrivals 0);
  Cluster.run ~until:(deadline + Time.sec 2) cl;
  let secs = Time.to_sec (deadline - warmup) in
  {
    offered_per_sec = float_of_int !offered /. secs;
    completed_per_sec = float_of_int !completed /. secs;
    mean_delay_ms = Stats.mean stats;
  }
