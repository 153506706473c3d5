open Amoeba_sim

type Node.wire +=
  | Req of { sender : int; msgid : int; body : bytes }
  | Data of { seq : int; sender : int; msgid : int; body : bytes }
  | Pos_ack of { seq : int; from : int }

(* Sequencer-only state (node 0). *)
type posack = {
  mutable next_seq : int;
  unacked : (int, (int, unit) Hashtbl.t * Node.entry) Hashtbl.t;
      (** seq -> (members yet to ack, entry) *)
  sequenced : (int * int, unit) Hashtbl.t;  (** (sender, msgid) *)
  mutable acks_seen : int;
}

type Node.state += Posack of posack

let posack (t : Node.t) =
  match t.state with Posack s -> s | _ -> invalid_arg "Posack"

(* Retransmit to members whose positive ack has not arrived. *)
let arm_retransmit (t : Node.t) seq =
  let s = posack t in
  let rec arm () =
    ignore
      (Engine.schedule t.engine ~after:t.cost.retrans_timeout_ns (fun () ->
           Engine.spawn t.engine tick))
  and tick () =
    match Hashtbl.find_opt s.unacked seq with
    | None -> ()
    | Some (missing, (sender, msgid, body)) ->
        if Hashtbl.length missing = 0 then Hashtbl.remove s.unacked seq
        else begin
          Hashtbl.iter
            (fun idx () ->
              Node.ucast t ~dst:t.peers.(idx) (Data { seq; sender; msgid; body }))
            missing;
          arm ()
        end
  in
  arm ()

(* Sequences a request once: the network may duplicate its frame. *)
let accept (t : Node.t) ~sender ~msgid ~body =
  let s = posack t in
  if not (Hashtbl.mem s.sequenced (sender, msgid)) then begin
    Hashtbl.replace s.sequenced (sender, msgid) ();
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    Node.charge t t.cost.group_seq_ns;
    let missing = Hashtbl.create 8 in
    for i = 0 to t.n - 1 do
      if i <> t.idx then Hashtbl.replace missing i ()
    done;
    Hashtbl.replace s.unacked seq (missing, (sender, msgid, body));
    Node.mcast t (Data { seq; sender; msgid; body });
    (* local delivery at the sequencer *)
    Node.learn t seq (sender, msgid, body);
    arm_retransmit t seq
  end

let receive (t : Node.t) = function
  | Req { sender; msgid; body } ->
      if t.idx = 0 then begin
        Node.charge t t.cost.group_deliver_ns;
        accept t ~sender ~msgid ~body
      end
  | Data { seq; sender; msgid; body } ->
      Node.charge t t.cost.group_deliver_ns;
      if seq >= t.nxt && not (Hashtbl.mem t.slots seq) then
        Node.learn t seq (sender, msgid, body);
      (* The positive acknowledgement the paper's design avoids. *)
      Node.ucast t ~dst:t.peers.(0) (Pos_ack { seq; from = t.idx })
  | Pos_ack { seq; from } -> (
      if t.idx = 0 then
        let s = posack t in
        Node.charge t t.cost.group_seq_ns;
        s.acks_seen <- s.acks_seen + 1;
        match Hashtbl.find_opt s.unacked seq with
        | Some (missing, _) ->
            Hashtbl.remove missing from;
            if Hashtbl.length missing = 0 then Hashtbl.remove s.unacked seq
        | None -> ())
  | _ -> ()

let submit (t : Node.t) { Node.msgid; body; _ } =
  if t.idx = 0 then accept t ~sender:0 ~msgid ~body
  else Node.ucast t ~dst:t.peers.(0) (Req { sender = t.idx; msgid; body })

let make_group =
  Node.make_group
    {
      init =
        (fun () ->
          Posack
            {
              next_seq = 0;
              unacked = Hashtbl.create 32;
              sequenced = Hashtbl.create 64;
              acks_seen = 0;
            });
      payload =
        (function Req { body; _ } | Data { body; _ } -> Some body | _ -> None);
      receive;
      submit;
      repaired = Node.learn;
    }

let acks_received t = (posack t).acks_seen
