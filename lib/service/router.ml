open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Amoeba_core
module Rpc = Amoeba_rpc.Rpc

type reply =
  | Value of string
  | Not_found
  | Written
  | Failed of string

type stats = {
  ops : int;
  retries : int;
  failovers : int;
  redirects : int;
  probes_dead : int;
  batches_sent : int;
  ops_batched : int;
  partial_flushes : int;
  batch_retries : int;
  stale_gets : int;
  txns : int;
}

type op = Get of string | Put of string * string | Del of string

type shard_state = {
  queue : (Kv.request * reply Ivar.t) Channel.t;
  turn : unit Channel.t;
      (* one token: the right to gather the next batch off the queue
         (batching mode only) *)
  mutable eps : Service.endpoint array;
  mutable suspect : bool array;
  mutable reserve : bool array;
      (* endpoints on the shard's sequencer host: kept out of the
         rotation while any other replica answers, so the sequencer
         machine spends its cycles ordering, not serving RPCs *)
  mutable rr : int;  (* round-robin cursor over replicas *)
}

type t = {
  engine : Engine.t;
  flip : Flip.t;
  map : Shard_map.t;
  shards : shard_state array;
  det : Failure_detector.t;
  timeout : Time.t;
  attempts : int;
  max_batch : int;
  batch_delay : Time.t;
  stale_reads : bool;
  mutable txn_client : Rpc.client option;
      (* created on first [txn]: an idle client must cost nothing, so
         a router that never runs transactions stays bit-identical *)
  mutable jseed : int;  (* xorshift state for retry-backoff jitter *)
  mutable s_stale_gets : int;
  mutable s_ops : int;
  mutable s_retries : int;
  mutable s_failovers : int;
  mutable s_redirects : int;
  mutable s_probes_dead : int;
  mutable s_batches_sent : int;
  mutable s_ops_batched : int;
  mutable s_partial_flushes : int;
  mutable s_batch_retries : int;
  mutable s_txns : int;
}

(* Next replica to try: round-robin over the ones not currently
   suspected dead, leaving the sequencer host's endpoints in reserve
   while any follower answers.  If every replica is suspect, forgive
   them all — the detector can be wrong, and a healed shard must
   become reachable again. *)
let pick ss =
  let n = Array.length ss.eps in
  if n = 0 then None
    (* a recovery handoff can momentarily leave a shard with no
       endpoints; the caller backs off rather than dividing by zero *)
  else begin
    let usable i = not ss.suspect.(i) in
    if not (Array.exists Fun.id (Array.init n usable)) then
      Array.fill ss.suspect 0 n false;
    let follower_up =
      Array.exists Fun.id
        (Array.init n (fun i -> usable i && not ss.reserve.(i)))
    in
    let want i = usable i && ((not follower_up) || not ss.reserve.(i)) in
    let rec go tries =
      let i = ss.rr mod n in
      ss.rr <- ss.rr + 1;
      if (not (want i)) && tries < 2 * n then go (tries + 1) else i
    in
    Some (go 0)
  end

(* Retry backoff with ±25% jitter.  Clients that all timed out on the
   same drowning replica back off by the same [ms * attempt], wake on
   the same boundary and re-collide forever — the herd just
   resynchronises at each step.  A per-router xorshift spreads them
   out deterministically; the stream is only consumed on a retry, so
   a healthy run sleeps zero times and stays bit-identical. *)
let backoff t ms attempt =
  let s = t.jseed in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  t.jseed <- s land max_int;
  let base = Time.ms (ms * attempt) in
  Engine.sleep t.engine (base / 1000 * (750 + (t.jseed mod 501)))

(* Endpoints on one machine share fate: a dead-host verdict for one
   condemns its whole pool, so the rotation skips them all instead of
   burning a timeout-and-probe cycle per sibling. *)
let suspect_host ss host =
  Array.iteri
    (fun j ep -> if ep.Service.ep_host = host then ss.suspect.(j) <- true)
    ss.eps

let perform t client ss req =
  let payload = Kv.encode_request req in
  let rec go attempt =
    if attempt > t.attempts then Failed "attempts exhausted"
    else begin
      if attempt > 1 then t.s_retries <- t.s_retries + 1;
      match pick ss with
      | None ->
          (* Mid-recovery: no endpoints installed yet.  Back off like
             a [Busy] reply until [update_endpoints] lands. *)
          backoff t 25 attempt;
          go (attempt + 1)
      | Some i -> (
          (* Snapshot the arrays [i] indexes before the blocking call:
             a power-cycle recovery may run [update_endpoints] while
             the RPC is in flight, swapping in arrays of a different
             length, and the post-call verdict must land on the
             endpoint actually tried — not index out of bounds in the
             fresh state. *)
          let eps = ss.eps and suspect = ss.suspect in
          let ep = eps.(i) in
          match
            Rpc.call client ~dst:ep.Service.ep_addr ~timeout:t.timeout
              ~retries:1 payload
          with
          | Ok bytes -> (
              suspect.(i) <- false;
              match Kv.decode_reply bytes with
              | Some (Kv.Value v) -> Value v
              | Some Kv.Not_found -> Not_found
              | Some Kv.Written -> Written
              | Some (Kv.Wrong_shard _) ->
                  (* Static map: can only happen on a stale/buggy peer.
                     Re-enqueue on the shard the key really hashes to. *)
                  t.s_redirects <- t.s_redirects + 1;
                  let s = Shard_map.shard_of_key t.map (Kv.request_key req) in
                  let iv = Ivar.create () in
                  Channel.send t.shards.(s).queue (req, iv);
                  Ivar.read t.engine iv
              | Some (Kv.Busy _) ->
                  (* The shard is recovering; give it a moment. *)
                  backoff t 25 attempt;
                  go (attempt + 1)
              | None -> go (attempt + 1))
          | Error `No_route ->
              (* FLIP could not locate the endpoint.  A dead host looks
                 like this, but so does a congested wire eating the locate
                 probes — so step aside briefly before hammering another
                 replica. *)
              t.s_failovers <- t.s_failovers + 1;
              suspect_host ss ep.Service.ep_host;
              backoff t 5 attempt;
              go (attempt + 1)
          | Error `Timeout ->
              (* Slow or dead?  Ask the failure detector, like the group
                 kernel would.  Alive means congested — the request is
                 probably still sitting in the replica's queue, so an
                 immediate resend doubles its load exactly when it is
                 drowning.  Back off before retrying; only a dead
                 verdict fails over at once. *)
              if Failure_detector.probe t.det ep.Service.ep_probe then begin
                backoff t 25 attempt;
                go (attempt + 1)
              end
              else begin
                t.s_probes_dead <- t.s_probes_dead + 1;
                t.s_failovers <- t.s_failovers + 1;
                suspect_host ss ep.Service.ep_host;
                go (attempt + 1)
              end)
    end
  in
  go 1

(* One RPC carrying a whole batch of ops for this shard.  Definitive
   per-op replies fan back to their waiters; [Wrong_shard] ops re-hash
   and re-enqueue on the right shard; [Busy] ops and transport failures
   retry the remaining batch {e whole} — every write in it carries a
   fresh service-wide uid, so a replayed batch is a distinct stream
   body and the no-duplicates invariant is untouched. *)
let rec perform_batch t client ss items attempt =
  match items with
  | [] -> ()
  | _ when attempt > t.attempts ->
      List.iter
        (fun (_, iv) -> ignore (Ivar.try_fill iv (Failed "attempts exhausted")))
        items
  | _ ->
      if attempt > 1 then begin
        t.s_retries <- t.s_retries + 1;
        t.s_batch_retries <- t.s_batch_retries + 1
      end;
      let payload = Kv.encode_batch_request (List.map fst items) in
      match pick ss with
      | None ->
          (* Mid-recovery: no endpoints yet; see [perform]. *)
          backoff t 25 attempt;
          perform_batch t client ss items (attempt + 1)
      | Some i -> (
      (* Same snapshot rule as [perform]: [update_endpoints] may swap
         the arrays while the batch RPC is in flight. *)
      let eps = ss.eps and suspect = ss.suspect in
      let ep = eps.(i) in
      match
        Rpc.call client ~dst:ep.Service.ep_addr ~timeout:t.timeout ~retries:1
          payload
      with
      | Ok bytes -> (
          suspect.(i) <- false;
          match Kv.decode_batch_reply bytes with
          | Some replies when List.length replies = List.length items ->
              let busy = ref [] in
              List.iter2
                (fun ((req, iv) as item) rep ->
                  match rep with
                  | Kv.Value v -> ignore (Ivar.try_fill iv (Value v))
                  | Kv.Not_found -> ignore (Ivar.try_fill iv Not_found)
                  | Kv.Written -> ignore (Ivar.try_fill iv Written)
                  | Kv.Wrong_shard _ ->
                      t.s_redirects <- t.s_redirects + 1;
                      let s =
                        Shard_map.shard_of_key t.map (Kv.request_key req)
                      in
                      Channel.send t.shards.(s).queue (req, iv)
                  | Kv.Busy _ -> busy := item :: !busy)
                items replies;
              (match List.rev !busy with
              | [] -> ()
              | leftover ->
                  (* The shard is recovering; give it a moment. *)
                  backoff t 25 attempt;
                  perform_batch t client ss leftover (attempt + 1))
          | Some _ | None -> perform_batch t client ss items (attempt + 1))
      | Error `No_route ->
          t.s_failovers <- t.s_failovers + 1;
          suspect_host ss ep.Service.ep_host;
          backoff t 5 attempt;
          perform_batch t client ss items (attempt + 1)
      | Error `Timeout ->
          (* Same congestion rule as [perform]: alive-but-slow backs
             off instead of re-shipping the whole batch into the
             replica's backlog. *)
          if Failure_detector.probe t.det ep.Service.ep_probe then begin
            backoff t 25 attempt;
            perform_batch t client ss items (attempt + 1)
          end
          else begin
            t.s_probes_dead <- t.s_probes_dead + 1;
            t.s_failovers <- t.s_failovers + 1;
            suspect_host ss ep.Service.ep_host;
            perform_batch t client ss items (attempt + 1)
          end)

(* Nagle-style accumulation: having taken one op, keep the pipeline
   open until the batch fills or [batch_delay] expires — whichever
   fires first.  Returns the batch (submission order) and whether the
   flush was forced by the timer rather than by size. *)
let gather t ss first =
  let deadline = Engine.now t.engine + t.batch_delay in
  let rec go acc n =
    if n >= t.max_batch then (List.rev acc, false)
    else
      match Channel.try_recv ss.queue with
      | Some item -> go (item :: acc) (n + 1)
      | None ->
          let remaining = deadline - Engine.now t.engine in
          if remaining <= 0 then (List.rev acc, true)
          else (
            match Channel.recv_timeout t.engine ss.queue ~timeout:remaining with
            | Some item -> go (item :: acc) (n + 1)
            | None -> (List.rev acc, true))
  in
  go [ first ] 1

(* Leader/follower batching: the shard's single [turn] token is the
   right to gather the next batch, and only an {e idle} worker holds
   it.  While every worker is busy shipping, arrivals pile up on the
   queue untouched — they would only be waiting in line anyway — and
   the first worker to free up drains that whole backlog into one
   batch at once.  So batches grow exactly when the shard is saturated
   (where amortising the sequencer round matters) and the [batch_delay]
   Nagle timer only ever adds latency when there is spare capacity. *)
let worker t flip ss () =
  let client = Rpc.client flip in
  let rec loop () =
    (if t.max_batch <= 1 then begin
       (* the exact pre-batching path: no timer, no batch framing *)
       let req, iv = Channel.recv t.engine ss.queue in
       ignore (Ivar.try_fill iv (perform t client ss req))
     end
     else begin
       Channel.recv t.engine ss.turn;
       let first = Channel.recv t.engine ss.queue in
       let items, timed_out = gather t ss first in
       (* hand the gathering right to the next idle worker before the
          (long) RPC, so accumulation never stops *)
       Channel.send ss.turn ();
       if timed_out then t.s_partial_flushes <- t.s_partial_flushes + 1;
       match items with
       | [ (req, iv) ] ->
           (* a lone op keeps the single-op wire frame *)
           ignore (Ivar.try_fill iv (perform t client ss req))
       | items ->
           t.s_batches_sent <- t.s_batches_sent + 1;
           t.s_ops_batched <- t.s_ops_batched + List.length items;
           perform_batch t client ss items 1
     end);
    loop ()
  in
  loop ()

let create flip ?pipeline ?(max_batch = 1) ?(batch_delay = Time.us 500)
    ?(timeout = Time.ms 250) ?(attempts = 12) ?(stale_reads = false) ~map
    ~endpoints () =
  let pipeline =
    Option.value pipeline ~default:(if max_batch > 1 then 1 else 4)
  in
  let machine = Flip.machine flip in
  let engine = Machine.engine machine in
  let t =
    {
      engine;
      flip;
      map;
      shards =
        Array.mapi
          (fun shard eps ->
            let seq_host = Shard_map.sequencer_host map shard in
            {
              queue = Channel.create ();
              turn = Channel.create ();
              eps;
              suspect = Array.make (Array.length eps) false;
              reserve =
                Array.map
                  (fun ep -> ep.Service.ep_host = seq_host)
                  eps;
              rr = 0;
            })
          endpoints;
      det = Failure_detector.create flip;
      timeout;
      attempts;
      max_batch = max 1 max_batch;
      batch_delay;
      stale_reads;
      txn_client = None;
      jseed = 0x2545F491;
      s_stale_gets = 0;
      s_ops = 0;
      s_retries = 0;
      s_failovers = 0;
      s_redirects = 0;
      s_probes_dead = 0;
      s_batches_sent = 0;
      s_ops_batched = 0;
      s_partial_flushes = 0;
      s_batch_retries = 0;
      s_txns = 0;
    }
  in
  Array.iter
    (fun ss ->
      if t.max_batch > 1 then Channel.send ss.turn ();
      for _ = 1 to pipeline do
        Engine.spawn engine ~group:(Machine.group machine) (worker t flip ss)
      done)
    t.shards;
  t

let request t req =
  t.s_ops <- t.s_ops + 1;
  let s = Shard_map.shard_of_key t.map (Kv.request_key req) in
  let iv = Ivar.create () in
  Channel.send t.shards.(s).queue (req, iv);
  Ivar.read t.engine iv

let get t k =
  if t.stale_reads then begin
    t.s_stale_gets <- t.s_stale_gets + 1;
    request t (Kv.Stale_get k)
  end
  else request t (Kv.Get k)

let put t k v = request t (Kv.Put (k, v))
let del t k = request t (Kv.Del k)

(* A multi-key single-shard transaction: the whole op list ships as
   ONE batch RPC, whose writes the replica submits as ONE sequencer
   round ([Rsm.submit_batch]) — so the writes land contiguously on the
   shard's totally-ordered stream (atomic: no other client's update
   interleaves them) and the reads are answered after they applied
   (the committed post-image).  Bypasses the Nagle gatherer: a
   transaction must never be split across sequencer rounds nor merged
   with a stranger's ops.  Failure handling is the batch path's —
   whole-transaction retry with fresh-uid idempotence. *)
let txn t ops =
  match ops with
  | [] -> Error "empty transaction"
  | _ -> (
      let reqs =
        List.map
          (function
            | Get k -> Kv.Get k
            | Put (k, v) -> Kv.Put (k, v)
            | Del k -> Kv.Del k)
          ops
      in
      let shard_of r = Shard_map.shard_of_key t.map (Kv.request_key r) in
      let s0 = shard_of (List.hd reqs) in
      match List.find_opt (fun r -> shard_of r <> s0) reqs with
      | Some r ->
          Error
            (Printf.sprintf "transaction spans shards (%S on %d, %S on %d)"
               (Kv.request_key (List.hd reqs))
               s0 (Kv.request_key r) (shard_of r))
      | None ->
          t.s_ops <- t.s_ops + List.length reqs;
          t.s_txns <- t.s_txns + 1;
          let client =
            match t.txn_client with
            | Some c -> c
            | None ->
                let c = Rpc.client t.flip in
                t.txn_client <- Some c;
                c
          in
          let items = List.map (fun r -> (r, Ivar.create ())) reqs in
          perform_batch t client t.shards.(s0) items 1;
          Ok (List.map (fun (_, iv) -> Ivar.read t.engine iv) items))

(* Swap in a fresh endpoint map — the recovery or migration handoff.
   The new sequencer host's pool comes first in each shard's array
   (that is [Service.recover] / [Service.migrate_shard]'s contract),
   so the reserve set is re-derived from it rather than from the
   static shard map, whose sequencer placement the swap may have
   changed.  Health state {e carries over} for hosts present in both
   maps: a migration typically moves one shard while the others keep
   their replicas, and resetting their suspicion would send the next
   request of every pinned shard straight back into a known-dead host
   — a spurious timeout-probe-failover wave per swap.  Hosts new to a
   shard start trusted.  Requests already queued simply get performed
   against the new endpoints; in-flight attempts against dead
   addresses fail over normally. *)
let update_endpoints t endpoints =
  Array.iteri
    (fun shard eps ->
      if shard < Array.length t.shards then begin
        let ss = t.shards.(shard) in
        let bad_host h =
          Array.exists Fun.id
            (Array.mapi
               (fun j ep -> ss.suspect.(j) && ep.Service.ep_host = h)
               ss.eps)
        in
        let suspect = Array.map (fun ep -> bad_host ep.Service.ep_host) eps in
        ss.eps <- eps;
        ss.suspect <- suspect;
        ss.reserve <-
          (if Array.length eps = 0 then [||]
           else
             let seq_host = eps.(0).Service.ep_host in
             Array.map (fun ep -> ep.Service.ep_host = seq_host) eps);
        ss.rr <- 0
      end)
    endpoints

(* Test hook: the hosts shard [i]'s rotation currently suspects. *)
let suspected t shard =
  let ss = t.shards.(shard) in
  List.sort_uniq compare
    (List.concat
       (Array.to_list
          (Array.mapi
             (fun j ep -> if ss.suspect.(j) then [ ep.Service.ep_host ] else [])
             ss.eps)))

let suspect_host_for_test t shard host = suspect_host t.shards.(shard) host

let stats t =
  {
    ops = t.s_ops;
    retries = t.s_retries;
    failovers = t.s_failovers;
    redirects = t.s_redirects;
    probes_dead = t.s_probes_dead;
    batches_sent = t.s_batches_sent;
    ops_batched = t.s_ops_batched;
    partial_flushes = t.s_partial_flushes;
    batch_retries = t.s_batch_retries;
    stale_gets = t.s_stale_gets;
    txns = t.s_txns;
  }
