type Node.wire +=
  | Req of { sender : int; msgid : int; body : bytes; hops : int }
  | Data of { seq : int; sender : int; msgid : int; body : bytes; new_holder : int }

type migrating = {
  mutable holder : int;  (** who we believe holds the token *)
  mutable next_seq : int;  (** valid when we hold the token *)
  seen : (int * int, unit) Hashtbl.t;  (** sequenced (sender,msgid) *)
  mutable token_arrivals : int;
}

type Node.state += Migrating of migrating

let migrating (t : Node.t) =
  match t.state with Migrating s -> s | _ -> invalid_arg "Migrating"

(* Sequencing while holding the token; the token follows the sender.
   All state (sequence counter, token transfer, local slot) is
   committed before the blocking multicast, so a concurrent
   activation in another process cannot double-assign a sequence
   number or sequence under a token we already gave away. *)
let sequence (t : Node.t) ~sender ~msgid ~body =
  let s = migrating t in
  if not (Hashtbl.mem s.seen (sender, msgid)) then begin
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    Hashtbl.replace s.seen (sender, msgid) ();
    s.holder <- sender;
    Node.learn t seq (sender, msgid, body);
    Node.charge t t.cost.group_seq_ns;
    Node.mcast t (Data { seq; sender; msgid; body; new_holder = sender })
  end

(* Sequences when holding the token, else sends the request on to the
   believed holder; a request is forwarded at most 8 times. *)
let route (t : Node.t) ~sender ~msgid ~body ~hops =
  let s = migrating t in
  if s.holder = t.idx then sequence t ~sender ~msgid ~body
  else if hops <= 8 then
    Node.ucast t ~dst:t.peers.(s.holder) (Req { sender; msgid; body; hops })

let receive (t : Node.t) = function
  | Req { sender; msgid; body; hops } ->
      Node.charge t t.cost.group_deliver_ns;
      route t ~sender ~msgid ~body ~hops:(hops + 1)
  | Data { seq; sender; msgid; body; new_holder } ->
      Node.charge t t.cost.group_deliver_ns;
      let s = migrating t in
      Hashtbl.replace s.seen (sender, msgid) ();
      t.max_seen <- max t.max_seen seq;
      if new_holder = t.idx then begin
        if s.holder <> t.idx then s.token_arrivals <- s.token_arrivals + 1;
        s.next_seq <- seq + 1
      end;
      s.holder <- new_holder;
      if seq >= t.nxt && not (Hashtbl.mem t.slots seq) then
        Node.learn t seq (sender, msgid, body);
      if Node.gap t then Node.arm_repair t ignore
  | _ -> ()

let submit (t : Node.t) (sub : Node.submission) =
  route t ~sender:t.idx ~msgid:sub.msgid ~body:sub.body ~hops:0;
  (* Retry against a lost request, data or token-forwarding loop. *)
  Node.retry_later t sub

let make_group =
  Node.make_group
    {
      init =
        (fun () ->
          Migrating
            { holder = 0; next_seq = 0; seen = Hashtbl.create 64; token_arrivals = 0 });
      payload =
        (function Req { body; _ } | Data { body; _ } -> Some body | _ -> None);
      receive;
      submit;
      repaired = Node.learn;
    }

let token_moves t = (migrating t).token_arrivals
