open Amoeba_sim
open Amoeba_net
open Amoeba_flip

type delivery = {
  seq : int;
  sender : int;
  body : bytes;
}

type entry = int * int * bytes
type wire = ..

type wire +=
  | Nack of { seq : int; reply_to : Addr.t }
  | Retrans of { seq : int; sender : int; msgid : int; body : bytes }

type Packet.body += Baseline of wire
type state = ..

type submission = {
  msgid : int;
  body : bytes;
  done_ : unit Ivar.t;
}

type t = {
  idx : int;
  n : int;
  flip : Flip.t;
  machine : Machine.t;
  engine : Engine.t;
  cost : Cost_model.t;
  gaddr : Addr.t;
  kaddr : Addr.t;
  mutable peers : Addr.t array;
  rules : rules;
  state : state;
  inbox : (unit -> unit) Channel.t;
  deliveries : delivery Channel.t;
  mutable nxt : int;
  mutable max_seen : int;
  slots : (int, entry) Hashtbl.t;
  hist : (int, entry) Hashtbl.t;
  mutable repair_armed : bool;
  mutable pending : (int * unit Ivar.t) option;
  mutable msgid_counter : int;
}

and rules = {
  init : unit -> state;
  payload : wire -> bytes option;
  receive : t -> wire -> unit;
  submit : t -> submission -> unit;
  repaired : t -> int -> entry -> unit;
}

let charge t d = Machine.work t.machine ~layer:"group" d

(* The user-level context switches the Amoeba measurements include:
   one into the kernel per send, one to wake the blocked sender, one
   to the receiving thread per delivery.  Charged here too so the
   baseline comparison is apples-to-apples. *)
let charge_user t = Machine.work t.machine ~layer:"user" t.cost.context_switch_ns

let size t w =
  let data =
    match w with
    | Retrans { body; _ } -> Some body
    | Nack _ -> None
    | w -> t.rules.payload w
  in
  match data with
  | Some body -> t.cost.header_group + t.cost.header_user + Bytes.length body
  | None -> t.cost.header_group

let mcast t w =
  ignore
    (Flip.multicast t.flip
       (Packet.make ~src:t.kaddr ~dst:t.gaddr ~size:(size t w) (Baseline w)))

let ucast t ~dst w =
  ignore
    (Flip.send t.flip (Packet.make ~src:t.kaddr ~dst ~size:(size t w) (Baseline w)))

let rec drain t =
  match Hashtbl.find_opt t.slots t.nxt with
  | None -> ()
  | Some ((sender, msgid, body) as e) ->
      Hashtbl.remove t.slots t.nxt;
      Hashtbl.replace t.hist t.nxt e;
      charge_user t;
      Channel.send t.deliveries { seq = t.nxt; sender; body };
      (match t.pending with
      | Some (m, done_) when sender = t.idx && m = msgid ->
          t.pending <- None;
          Ivar.fill done_ ()
      | Some _ | None -> ());
      t.nxt <- t.nxt + 1;
      drain t

let learn t seq e =
  Hashtbl.replace t.slots seq e;
  t.max_seen <- max t.max_seen seq;
  drain t

let gap t = t.max_seen >= t.nxt

let arm_repair t after_nack =
  if not t.repair_armed then begin
    t.repair_armed <- true;
    ignore
      (Engine.schedule t.engine ~after:t.cost.nack_timeout_ns (fun () ->
           t.repair_armed <- false;
           if gap t then
             (* Sending blocks, so it needs its own process. *)
             Engine.spawn t.engine (fun () ->
                 mcast t (Nack { seq = t.nxt; reply_to = t.kaddr });
                 after_nack ())))
  end

let submit t s = if not (Ivar.is_full s.done_) then t.rules.submit t s

let retry_later t s =
  ignore
    (Engine.schedule t.engine ~after:t.cost.retrans_timeout_ns (fun () ->
         Channel.send t.inbox (fun () -> submit t s)))

(* The member with index (seq mod n) serves a repair, spreading the
   load over the group. *)
let handle t = function
  | Nack { seq; reply_to } -> (
      charge t t.cost.group_deliver_ns;
      if seq mod t.n = t.idx then
        match Hashtbl.find_opt t.hist seq with
        | Some (sender, msgid, body) ->
            ucast t ~dst:reply_to (Retrans { seq; sender; msgid; body })
        | None -> ())
  | Retrans { seq; sender; msgid; body } ->
      charge t t.cost.group_deliver_ns;
      if seq >= t.nxt then t.rules.repaired t seq (sender, msgid, body)
  | w -> t.rules.receive t w

(* All activity runs in the node's single protocol process, so a
   node's messages reach the wire in commit order (two processes
   sending concurrently could otherwise reorder a token handoff). *)
let node_loop t () =
  let rec loop () =
    Channel.recv t.engine t.inbox ();
    loop ()
  in
  loop ()

let make_node rules ~idx ~n ~gaddr flip =
  let machine = Flip.machine flip in
  let t =
    {
      idx;
      n;
      flip;
      machine;
      engine = Machine.engine machine;
      cost = Machine.cost machine;
      gaddr;
      kaddr = Flip.fresh_addr flip;
      peers = [||];
      rules;
      state = rules.init ();
      inbox = Channel.create ();
      deliveries = Channel.create ();
      nxt = 0;
      max_seen = -1;
      slots = Hashtbl.create 32;
      hist = Hashtbl.create 256;
      repair_armed = false;
      pending = None;
      msgid_counter = 0;
    }
  in
  let on_packet p =
    match p.Packet.body with
    | Baseline w -> Channel.send t.inbox (fun () -> handle t w)
    | _ -> ()
  in
  Flip.register flip t.kaddr on_packet;
  Flip.register_group flip gaddr on_packet;
  Engine.spawn t.engine (node_loop t);
  t

let make_group rules flips =
  match flips with
  | [] -> []
  | first :: _ ->
      let gaddr = Flip.fresh_addr first in
      let n = List.length flips in
      let nodes = List.mapi (fun idx flip -> make_node rules ~idx ~n ~gaddr flip) flips in
      let peers = Array.of_list (List.map (fun t -> t.kaddr) nodes) in
      List.iter (fun t -> t.peers <- peers) nodes;
      nodes

let send t body =
  t.msgid_counter <- t.msgid_counter + 1;
  let msgid = t.msgid_counter in
  let done_ = Ivar.create () in
  t.pending <- Some (msgid, done_);
  charge_user t;
  charge t t.cost.group_send_ns;
  Channel.send t.inbox (fun () -> submit t { msgid; body; done_ });
  Ivar.read t.engine done_;
  charge_user t

let events t = t.deliveries
let delivered t = t.nxt
