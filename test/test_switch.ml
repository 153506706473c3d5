(* Tests for the switched full-duplex fabric: forwarding, queueing
   loss, oversubscribed uplinks, fault injection and the root-group
   in-flight rule. *)

open Amoeba_sim
open Amoeba_net

type Frame.body += Tag of int

let cost = Cost_model.default

let make_switch ?(cost = cost) ?(profile = Switch.flat) () =
  let eng = Engine.create () in
  let sw = Switch.create eng cost profile in
  (eng, sw)

let frame ?(size = 64) ~src ~dest tag =
  { Frame.src; dest; size_on_wire = size; body = Tag tag }

let test_profile_parsing () =
  (match Switch.profile_of_string "switch" with
  | Ok p -> Alcotest.(check int) "flat segments" 1 p.Switch.segments
  | Error e -> Alcotest.fail e);
  (match Switch.profile_of_string "switch:2x48@10" with
  | Ok p ->
      Alcotest.(check int) "segments" 2 p.Switch.segments;
      Alcotest.(check int) "segment size" 48 p.Switch.segment_size;
      Alcotest.(check int) "uplink mult" 10 p.Switch.uplink_mult
  | Error e -> Alcotest.fail e);
  (match Switch.profile_of_string "switch:4x25" with
  | Ok p ->
      Alcotest.(check int) "segments" 4 p.Switch.segments;
      Alcotest.(check int) "default uplink mult" 10 p.Switch.uplink_mult
  | Error e -> Alcotest.fail e);
  (match Switch.profile_of_string "switch:0x4" with
  | Ok _ -> Alcotest.fail "0 segments accepted"
  | Error _ -> ());
  match Switch.profile_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error _ -> ()

let test_unicast_reaches_only_destination () =
  let eng, sw = make_switch () in
  let got = ref [] in
  let _p0 = Switch.attach sw ~rx:(fun f -> got := (0, f) :: !got) in
  let p1 = Switch.attach sw ~rx:(fun f -> got := (1, f) :: !got) in
  let _p2 = Switch.attach sw ~rx:(fun f -> got := (2, f) :: !got) in
  Engine.spawn eng (fun () ->
      let f = frame ~src:(Switch.port_id p1) ~dest:(Frame.Unicast 2) 7 in
      ignore (Switch.transmit sw p1 f));
  Engine.run eng;
  Alcotest.(check (list int)) "only station 2" [ 2 ] (List.map fst !got);
  Alcotest.(check int) "frames counted" 1 (Switch.frames_delivered sw)

let test_broadcast_floods_all_but_sender () =
  let eng, sw = make_switch () in
  let got = ref [] in
  let _p0 = Switch.attach sw ~rx:(fun f -> got := (0, f) :: !got) in
  let p1 = Switch.attach sw ~rx:(fun f -> got := (1, f) :: !got) in
  let _p2 = Switch.attach sw ~rx:(fun f -> got := (2, f) :: !got) in
  Engine.spawn eng (fun () ->
      let f = frame ~src:(Switch.port_id p1) ~dest:Frame.Broadcast 7 in
      ignore (Switch.transmit sw p1 f));
  Engine.run eng;
  let receivers = List.sort compare (List.map fst !got) in
  Alcotest.(check (list int)) "everyone but the sender" [ 0; 2 ] receivers

let test_full_duplex_no_collision () =
  (* Two simultaneous senders on a shared wire would collide; on the
     switch both frames go through, the second just queues at the
     common egress port. *)
  let eng, sw = make_switch () in
  let arrivals = ref [] in
  let _p0 = Switch.attach sw ~rx:(fun f -> arrivals := f :: !arrivals) in
  let p1 = Switch.attach sw ~rx:(fun _ -> ()) in
  let p2 = Switch.attach sw ~rx:(fun _ -> ()) in
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 1)));
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p2 (frame ~src:2 ~dest:(Frame.Unicast 0) 2)));
  Engine.run eng;
  Alcotest.(check int) "both delivered" 2 (List.length !arrivals);
  Alcotest.(check int) "no queue loss" 0 (Switch.queue_drops sw)

let test_egress_overflow_tail_drops () =
  (* Many senders converging on one port: one frame in service, one
     queued (cap 1), the rest tail-dropped and counted. *)
  let cost = { cost with Cost_model.switch_egress_frames = 1 } in
  let eng, sw = make_switch ~cost () in
  let delivered = ref 0 in
  let _p0 = Switch.attach sw ~rx:(fun _ -> incr delivered) in
  let senders = List.init 6 (fun i -> (i + 1, Switch.attach sw ~rx:ignore)) in
  List.iter
    (fun (i, p) ->
      Engine.spawn eng (fun () ->
          ignore (Switch.transmit sw p (frame ~src:i ~dest:(Frame.Unicast 0) i))))
    senders;
  Engine.run eng;
  Alcotest.(check bool) "some egress drops" true (Switch.egress_drops sw > 0);
  Alcotest.(check int) "drops + deliveries = sends" 6
    (!delivered + Switch.egress_drops sw);
  Alcotest.(check int) "all drops are egress drops" (Switch.egress_drops sw)
    (Switch.queue_drops sw)

let test_uplink_oversubscription_drops_cross_segment () =
  (* 2 segments x 2 hosts with a 1x uplink and a 1-frame uplink FIFO:
     both hosts of segment 0 blasting cross-segment overwhelm the
     uplink, while same-segment traffic never touches it. *)
  let cost = { cost with Cost_model.switch_uplink_frames = 1 } in
  let profile = { Switch.segments = 2; segment_size = 2; uplink_mult = 1 } in
  let eng, sw = make_switch ~cost ~profile () in
  let cross = ref 0 and local = ref 0 in
  let p0 = Switch.attach sw ~rx:ignore in
  let p1 = Switch.attach sw ~rx:(fun _ -> incr local) in
  let _p2 = Switch.attach sw ~rx:(fun _ -> incr cross) in
  let _p3 = Switch.attach sw ~rx:ignore in
  let blast p src =
    Engine.spawn eng (fun () ->
        for k = 1 to 10 do
          ignore
            (Switch.transmit sw p
               (frame ~size:1500 ~src ~dest:(Frame.Unicast 2) k))
        done)
  in
  blast p0 0;
  blast p1 1;
  (* Same-segment unicast from 0 to 1 rides only the local egress. *)
  Engine.spawn eng (fun () ->
      for k = 1 to 5 do
        ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Unicast 1) k))
      done);
  Engine.run eng;
  Alcotest.(check bool) "uplink drops" true (Switch.uplink_drops sw > 0);
  Alcotest.(check bool) "some cross-segment frames survive" true (!cross > 0);
  Alcotest.(check int) "cross loss accounted" 20
    (!cross + Switch.uplink_drops sw);
  Alcotest.(check int) "same-segment traffic unaffected" 5 !local

let test_crashed_sender_frame_still_delivered () =
  (* The sender's process group dies mid-serialization; the arrival
     event was committed to the root group, so the frame still lands
     — the switch's version of bits-already-on-the-wire. *)
  let eng, sw = make_switch () in
  let got = ref 0 in
  let _p0 = Switch.attach sw ~rx:(fun _ -> incr got) in
  let p1 = Switch.attach sw ~rx:ignore in
  let g = Engine.create_group eng ~label:"doomed" in
  Engine.spawn ~group:g eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 9)));
  (* Kill the sender while the frame is still serializing (frame time
     is ~70 us at 10 Mbit). *)
  ignore
    (Engine.schedule eng ~after:(Time.us 10) (fun () ->
         Engine.cancel_group eng g));
  Engine.run eng;
  Alcotest.(check int) "frame delivered after sender death" 1 !got

let test_partition_and_loss_on_switch () =
  let eng, sw = make_switch () in
  let lf = Switch.faults sw in
  let got = ref 0 in
  let _p0 = Switch.attach sw ~rx:(fun _ -> incr got) in
  let p1 = Switch.attach sw ~rx:ignore in
  Link_faults.partition_pair lf 0 1;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 1)));
  Engine.run eng;
  Alcotest.(check int) "partition suppresses delivery" 0 !got;
  Alcotest.(check int) "partition drop counted" 1 (Link_faults.partition_drops lf);
  Link_faults.heal lf;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 2)));
  Engine.run eng;
  Alcotest.(check int) "heal restores delivery" 1 !got;
  (* Injected loss drops at store-and-forward arrival. *)
  Link_faults.set_loss_rate lf 1.0;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 3)));
  Engine.run eng;
  Alcotest.(check int) "lossy frame never arrives" 1 !got;
  Alcotest.(check int) "loss counted" 1 (Link_faults.frames_lost lf)

let test_oneway_cut_is_directed () =
  let eng, sw = make_switch () in
  let lf = Switch.faults sw in
  let at0 = ref 0 and at1 = ref 0 in
  let p0 = Switch.attach sw ~rx:(fun _ -> incr at0) in
  let p1 = Switch.attach sw ~rx:(fun _ -> incr at1) in
  Link_faults.cut_oneway lf ~src:1 ~dst:0;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 1));
      ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Unicast 1) 2)));
  Engine.run eng;
  Alcotest.(check int) "cut direction blocked" 0 !at0;
  Alcotest.(check int) "reverse direction open" 1 !at1;
  Alcotest.(check int) "oneway drop counted" 1 (Link_faults.oneway_drops lf)

let test_utilisation_window_reset () =
  let eng, sw = make_switch () in
  let _p0 = Switch.attach sw ~rx:ignore in
  let p1 = Switch.attach sw ~rx:ignore in
  Engine.spawn eng (fun () ->
      for k = 1 to 4 do
        ignore
          (Switch.transmit sw p1 (frame ~size:1500 ~src:1 ~dest:(Frame.Unicast 0) k))
      done);
  Engine.run eng;
  Alcotest.(check bool) "busy window" true (Switch.utilisation sw > 0.);
  (* A fresh window with no elapsed time and no traffic reads 0. *)
  Switch.reset_utilisation_window sw;
  Alcotest.(check (float 1e-9)) "reset window" 0. (Switch.utilisation sw);
  (* Idle time after the reset keeps it at 0. *)
  ignore (Engine.schedule eng ~after:(Time.ms 10) (fun () -> ()));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "idle window" 0. (Switch.utilisation sw)

(* ----- the group stack on the switch ----- *)

open Amoeba_core
open Amoeba_harness
module T = Types

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (T.error_to_string e)

let test_group_recovers_egress_drops () =
  (* A 6-member group on a switch whose egress FIFOs hold a single
     frame: concurrent senders overflow the sequencer's port, and the
     NACK/retransmission machinery must still deliver every message to
     every member in sequencer order. *)
  let cost = { Cost_model.default with Cost_model.switch_egress_frames = 1 } in
  let n = 6 in
  let cl =
    Cluster.create ~cost ~fabric:(Medium.Switched Switch.flat) ~n ()
  in
  let failure = ref None in
  Cluster.spawn cl (fun () ->
      try
        let creator =
          Api.create_group (Cluster.flip cl 0) ~resilience:0 ~send_method:T.Pb
            ()
        in
        let addr = Api.group_address creator in
        let joiners =
          List.init (n - 1) (fun i ->
              check_ok "join"
                (Api.join_group
                   (Cluster.flip cl (i + 1))
                   ~resilience:0 ~send_method:T.Pb addr))
        in
        let members = creator :: joiners in
        let per_sender = 6 in
        List.iteri
          (fun i g ->
            Engine.spawn cl.Cluster.engine (fun () ->
                for k = 1 to per_sender do
                  ignore
                    (check_ok "send"
                       (Api.send_to_group g
                          (Bytes.of_string (Printf.sprintf "%d.%d" i k))))
                done))
          members;
        let expect = n * per_sender in
        List.iter
          (fun g ->
            for _ = 1 to expect do
              ignore (Api.receive_from_group g)
            done)
          members
      with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 2_000) cl;
  (match !failure with Some e -> raise e | None -> ());
  let sw =
    match Medium.switch cl.Cluster.net with
    | Some sw -> sw
    | None -> Alcotest.fail "cluster not on a switch"
  in
  Alcotest.(check bool) "fabric actually dropped frames" true
    (Switch.egress_drops sw > 0)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "switch",
    [
      tc "profile parsing" test_profile_parsing;
      tc "unicast reaches only destination" test_unicast_reaches_only_destination;
      tc "broadcast floods all but sender" test_broadcast_floods_all_but_sender;
      tc "full duplex does not collide" test_full_duplex_no_collision;
      tc "egress overflow tail-drops" test_egress_overflow_tail_drops;
      tc "uplink oversubscription drops cross-segment"
        test_uplink_oversubscription_drops_cross_segment;
      tc "crashed sender's frame still delivered"
        test_crashed_sender_frame_still_delivered;
      tc "partition and loss on switch" test_partition_and_loss_on_switch;
      tc "one-way cut is directed" test_oneway_cut_is_directed;
      tc "utilisation window reset" test_utilisation_window_reset;
      tc "group recovers egress drops via nacks" test_group_recovers_egress_drops;
    ] )
