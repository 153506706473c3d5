type Node.wire +=
  | Data of { sender : int; msgid : int; body : bytes }
  | Ack of { seq : int; sender : int; msgid : int; next_token : int }

type cm = {
  mutable token : int;  (** current token-site index *)
  mutable next_seq : int;  (** next seq the token site will assign *)
  unacked : (int * int) Queue.t;  (** (sender, msgid) awaiting an ack *)
  data_buf : (int * int, bytes) Hashtbl.t;
  acked : (int * int, int) Hashtbl.t;  (** (sender,msgid) -> seq *)
}

type Node.state += Cm of cm

let cm (t : Node.t) = match t.state with Cm s -> s | _ -> invalid_arg "Cm"
let rec arm_repair t = Node.arm_repair t (fun () -> arm_repair t)

(* Records an acknowledgement's effect on local state; never blocks.
   Only a fresh acknowledgement moves the token: a stale or duplicated
   one would hand it back to a site that already passed it on. *)
let rec apply_ack_state (t : Node.t) ~seq ~sender ~msgid ~next_token =
  let s = cm t in
  if seq >= s.next_seq then s.token <- next_token;
  s.next_seq <- max s.next_seq (seq + 1);
  t.max_seen <- max t.max_seen seq;
  if not (Hashtbl.mem s.acked (sender, msgid)) then begin
    Hashtbl.replace s.acked (sender, msgid) seq;
    (match Hashtbl.find_opt s.data_buf (sender, msgid) with
    | Some body ->
        Hashtbl.remove s.data_buf (sender, msgid);
        Node.learn t seq (sender, msgid, body)
    | None -> ());
    settle t
  end

(* Token site duty: acknowledge (and thereby sequence) the next
   buffered message, handing the token to the next member.  All state
   is committed BEFORE the blocking multicast: the send path and the
   receive path both call this, and a second activation while the
   first is blocked on the wire must see the token already passed on
   (otherwise two fibers would assign the same sequence number).  A
   token site that has not delivered up to [next_seq] may have missed
   an acknowledgement, so its [acked] table cannot tell a retransmitted
   message from a new one: it waits until the gap is repaired. *)
and ack_pending (t : Node.t) =
  let s = cm t in
  if s.token = t.idx && t.nxt >= s.next_seq then begin
    match Queue.take_opt s.unacked with
    | None -> ()
    | Some (sender, msgid) ->
        if Hashtbl.mem s.acked (sender, msgid) then ack_pending t
        else begin
          let seq = s.next_seq in
          let next_token = (t.idx + 1) mod t.n in
          apply_ack_state t ~seq ~sender ~msgid ~next_token;
          Node.charge t t.cost.group_seq_ns;
          Node.mcast t (Ack { seq; sender; msgid; next_token })
        end
  end

(* After a delivery: repair a gap or, with none left, sequence what
   waited for it. *)
and settle t = if Node.gap t then arm_repair t else ack_pending t

(* Holds a data message until an acknowledgement sequences it. *)
let buffer t ~sender ~msgid body =
  let s = cm t in
  Hashtbl.replace s.data_buf (sender, msgid) body;
  Queue.push (sender, msgid) s.unacked;
  ack_pending t

let receive (t : Node.t) = function
  | Data { sender; msgid; body } -> (
      Node.charge t t.cost.group_deliver_ns;
      match Hashtbl.find_opt (cm t).acked (sender, msgid) with
      | None -> buffer t ~sender ~msgid body
      | Some seq ->
          (* Ack already seen (retransmitted data): complete the slot. *)
          if seq >= t.nxt && not (Hashtbl.mem t.slots seq) then begin
            Node.learn t seq (sender, msgid, body);
            settle t
          end)
  | Ack { seq; sender; msgid; next_token } ->
      Node.charge t t.cost.group_deliver_ns;
      apply_ack_state t ~seq ~sender ~msgid ~next_token;
      ack_pending t;
      if Node.gap t then arm_repair t
  | _ -> ()

(* Multicast the data, with a retransmission timer against lost data
   or acks. *)
let submit (t : Node.t) (sub : Node.submission) =
  Node.mcast t (Data { sender = t.idx; msgid = sub.msgid; body = sub.body });
  (* Our own data must enter our own buffers too. *)
  if not (Hashtbl.mem (cm t).acked (t.idx, sub.msgid)) then
    buffer t ~sender:t.idx ~msgid:sub.msgid sub.body;
  Node.retry_later t sub

let repaired t seq ((sender, msgid, _) as e) =
  let s = cm t in
  Hashtbl.replace s.acked (sender, msgid) seq;
  Hashtbl.remove s.data_buf (sender, msgid);
  Node.learn t seq e;
  settle t

let make_group =
  Node.make_group
    {
      init =
        (fun () ->
          Cm
            {
              token = 0;
              next_seq = 0;
              unacked = Queue.create ();
              data_buf = Hashtbl.create 32;
              acked = Hashtbl.create 64;
            });
      payload = (function Data { body; _ } -> Some body | _ -> None);
      receive;
      submit;
      repaired;
    }
