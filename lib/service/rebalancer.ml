open Amoeba_sim
open Amoeba_harness

(* Sampling period; a host is hot when its sequencing load exceeds
   [hot_factor] times the pool mean; intervals with fewer handled ops
   than [min_ops] are idle noise, not load evidence; the loop stops
   after [max_moves] migration attempts. *)
let interval = Time.ms 250
let hot_factor = 2.0
let min_ops = 32
let max_moves = 4

type move = {
  mv_time : Time.t;
  mv_shard : int;
  mv_from : int list;
  mv_to : int list;
  mv_result : (unit, string) result;
}

(* Per-shard op deltas since the last tick are credited wholly to each
   shard's sequencer host — the paper's measurement is that the
   sequencer CPU is where a shard's cost lands, so that is the load
   being balanced. *)
let start cl svc ?(on_move = fun (_ : move) -> ()) () =
  let eng = cl.Cluster.engine in
  let moves = ref 0 in
  let last = ref (Service.shard_ops svc) in
  Cluster.spawn cl (fun () ->
      let rec loop () =
        if !moves < max_moves then begin
          Engine.sleep eng interval;
          let now_ops = Service.shard_ops svc in
          let map = Service.map svc in
          let shards = Shard_map.shards map in
          let pool = Shard_map.hosts map in
          let delta = Array.init shards (fun s -> now_ops.(s) - !last.(s)) in
          last := now_ops;
          let total = Array.fold_left ( + ) 0 delta in
          (if total >= min_ops then begin
             let seq_of =
               Array.init shards (fun s -> Service.sequencer_of svc s)
             in
             let seq_load = Hashtbl.create 8 in
             Array.iteri
               (fun s d ->
                 let h = seq_of.(s) in
                 Hashtbl.replace seq_load h
                   (d
                   + Option.value ~default:0 (Hashtbl.find_opt seq_load h)))
               delta;
             let load h =
               Option.value ~default:0 (Hashtbl.find_opt seq_load h)
             in
             let mean =
               float_of_int total /. float_of_int (List.length pool)
             in
             let hot =
               List.fold_left
                 (fun best h ->
                   match best with
                   | Some b when load b >= load h -> best
                   | _ -> Some h)
                 None pool
             in
             match hot with
             | Some hot when float_of_int (load hot) > hot_factor *. mean
               -> (
                 (* hottest shard sequenced by the overloaded host *)
                 let shard = ref (-1) in
                 Array.iteri
                   (fun s d ->
                     if
                       seq_of.(s) = hot
                       && (!shard < 0 || d > delta.(!shard))
                     then shard := s)
                   delta;
                 match !shard with
                 | -1 -> ()
                 | s ->
                     let cur = Shard_map.replica_hosts map s in
                     let k = List.length cur in
                     (* the whole replica set moves to the coldest
                        fresh hosts: with every member new, the first
                        joiner is the lowest-numbered survivor after
                        the cutover, so the sequencer provably lands
                        on the coldest machine *)
                     let candidates =
                       List.filter (fun h -> not (List.mem h cur)) pool
                       |> List.stable_sort (fun a b ->
                              compare (load a, a) (load b, b))
                     in
                     (* strict improvement only: the new sequencer
                        (the coldest candidate) inherits the shard's
                        load on top of its own, and unless that sum
                        is strictly below the hot host's load the
                        move just relocates the hot spot — and the
                        next tick would move it again, forever.  A
                        host hot purely because one shard is hot is
                        a key-skew problem, not a placement one. *)
                     if
                       List.length candidates >= k
                       && load (List.hd candidates) + delta.(s) < load hot
                     then begin
                       let target =
                         List.filteri (fun i _ -> i < k) candidates
                       in
                       let res =
                         Service.migrate_shard svc ~shard:s ~hosts:target ()
                       in
                       let mv =
                         {
                           mv_time = Engine.now eng;
                           mv_shard = s;
                           mv_from = cur;
                           mv_to = target;
                           mv_result = res;
                         }
                       in
                       incr moves;
                       (* the migration window's traffic is not load
                          evidence; restart the baseline *)
                       last := Service.shard_ops svc;
                       on_move mv
                     end)
             | _ -> ()
           end);
          loop ()
        end
      in
      loop ())
