open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Types_rpc

(* The RPC layer's per-packet processing cost; chosen so a null RPC
   round trip lands at the paper's 2.8 ms (see bench rpc_compare). *)
let rpc_layer_ns = 235_000
let rpc_header = 32

type wire =
  | Request of { rid : int; client : Addr.t; body : bytes }
  | Response of { rid : int; body : bytes }

type Packet.body += Rpc of wire

type server = {
  flip : Flip.t;
  addr : Addr.t;
  handler : bytes -> outcome;
  inbox : (wire * Addr.t) Channel.t;
  replies : (int * Addr.t, bytes) Hashtbl.t;  (** at-most-once cache *)
  mutable forwarded : int;
}

let charge flip =
  Machine.work (Flip.machine flip) ~layer:"rpc" rpc_layer_ns

let user_switch flip =
  let m = Flip.machine flip in
  Machine.work m ~layer:"user" (Machine.cost m).Cost_model.context_switch_ns

let send_wire flip ~src ~dst wire =
  let size =
    rpc_header
    + (match wire with
      | Request { body; _ } | Response { body; _ } -> Bytes.length body)
  in
  charge flip;
  Flip.send flip (Packet.make ~src ~dst ~size (Rpc wire))

let server_loop t () =
  let machine = Flip.machine t.flip in
  let engine = Machine.engine machine in
  let rec loop () =
    let wire, _src = Channel.recv engine t.inbox in
    (match wire with
    | Request { rid; client; body } -> (
        charge t.flip;
        match Hashtbl.find_opt t.replies (rid, client) with
        | Some cached ->
            ignore (send_wire t.flip ~src:t.addr ~dst:client
                      (Response { rid; body = cached }))
        | None -> (
            user_switch t.flip;
            match t.handler body with
            | Reply reply ->
                if Hashtbl.length t.replies > 1024 then Hashtbl.reset t.replies;
                Hashtbl.replace t.replies (rid, client) reply;
                ignore (send_wire t.flip ~src:t.addr ~dst:client
                          (Response { rid; body = reply }))
            | Forward target ->
                (* ForwardRequest: the next member replies straight
                   to the original client. *)
                t.forwarded <- t.forwarded + 1;
                ignore (send_wire t.flip ~src:t.addr ~dst:target
                          (Request { rid; client; body }))))
    | Response _ -> ());
    loop ()
  in
  loop ()

let serve flip ~addr handler =
  let t =
    {
      flip;
      addr;
      handler;
      inbox = Channel.create ();
      replies = Hashtbl.create 64;
      forwarded = 0;
    }
  in
  Flip.register flip addr (fun p ->
      match p.Packet.body with
      | Rpc wire -> Channel.send t.inbox (wire, p.Packet.src)
      | _ -> ());
  Engine.spawn (Machine.engine (Flip.machine flip)) (server_loop t);
  t

let requests_forwarded t = t.forwarded

type client = {
  c_flip : Flip.t;
  c_addr : Addr.t;
  mutable c_rid : int;
  c_pending : (int, bytes Channel.t) Hashtbl.t;
}

let client flip =
  let c =
    { c_flip = flip; c_addr = Flip.fresh_addr flip; c_rid = 0;
      c_pending = Hashtbl.create 8 }
  in
  Flip.register flip c.c_addr (fun p ->
      match p.Packet.body with
      | Rpc (Response { rid; body }) -> (
          match Hashtbl.find_opt c.c_pending rid with
          | Some ch -> Channel.send ch body
          | None -> ())
      | _ -> ());
  c

let call c ~dst ?(timeout = Time.ms 500) ?(retries = 3) body =
  let flip = c.c_flip in
  let machine = Flip.machine flip in
  let engine = Machine.engine machine in
  c.c_rid <- c.c_rid + 1;
  let rid = c.c_rid in
  let responses = Channel.create () in
  Hashtbl.replace c.c_pending rid responses;
  user_switch flip;
  let rec attempt n =
    if n > retries then Error `Timeout
    else begin
      match
        send_wire flip ~src:c.c_addr ~dst (Request { rid; client = c.c_addr; body })
      with
      | `No_route -> Error `No_route
      | `Sent | `Dropped -> (
          match Channel.recv_timeout engine responses ~timeout with
          | Some reply ->
              charge flip;
              user_switch flip;
              Ok reply
          | None -> attempt (n + 1))
    end
  in
  let result = attempt 1 in
  Hashtbl.remove c.c_pending rid;
  result
