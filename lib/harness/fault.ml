open Amoeba_sim
open Amoeba_net

type action =
  | Crash of int
  | Restart of int
  | Pause of int
  | Resume of int
  | Partition of int list * int list
  | Heal
  | Loss_burst of float * Time.t
  | Oneway of int * int
  | Burst of float * float * float * Time.t
  | Duplicate of float * Time.t
  | Jitter of int * Time.t
  | Corrupt of float * Time.t
  | Power_cycle_all of Time.t

type step = { at : Time.t; action : action }
type schedule = step list

let crash_count sched =
  List.fold_left
    (fun acc s -> match s.action with Crash _ -> acc + 1 | _ -> acc)
    0 sched

let sort sched = List.stable_sort (fun a b -> compare a.at b.at) sched

(* ----- execution ----- *)

(* A bounded burst overrides one network knob for its duration.  While
   bursts of one kind overlap, the most recently started one still
   active sets the knob; when the last one ends, the value from before
   the first one returns.  (Each burst restoring what it saw at its own
   start would leak: a burst that starts inside another and outlives
   it would reinstall the first one's value for good.)  Each setter
   reads the then-current conditions and replaces only its own field,
   so bursts of different kinds compose. *)
type knob = {
  mutable restore : unit -> unit;  (** reinstalls the pre-burst value *)
  mutable active : (unit -> unit) list;  (** installers, newest first *)
}

let override knobs c kind ~dur ~get ~set v =
  let k =
    match Hashtbl.find_opt knobs kind with
    | Some k -> k
    | None ->
        let k = { restore = ignore; active = [] } in
        Hashtbl.add knobs kind k;
        k
  in
  if List.is_empty k.active then begin
    let prev = get () in
    k.restore <- (fun () -> set prev)
  end;
  let install () = set v in
  k.active <- install :: k.active;
  install ();
  ignore
    (Engine.schedule c.Cluster.engine ~after:dur (fun () ->
         k.active <- List.filter (fun f -> f != install) k.active;
         match k.active with [] -> k.restore () | newest :: _ -> newest ()))

let fire knobs ?(on_restart = fun _ -> ()) ?(on_power_down = fun () -> ())
    ?(on_power_up = fun () -> ()) (c : Cluster.t) action =
  let lf = Medium.faults c.Cluster.net in
  let cond kind ~dur field update v =
    override knobs c kind ~dur
      ~get:(fun () -> field (Link_faults.conditions lf))
      ~set:(fun x ->
        Link_faults.set_conditions lf (update (Link_faults.conditions lf) x))
      v
  in
  match action with
  | Crash i -> Machine.crash (Cluster.machine c i)
  | Restart i ->
      if not (Machine.is_alive (Cluster.machine c i)) then begin
        Cluster.restart c i;
        on_restart i
      end
  | Pause i -> Machine.pause (Cluster.machine c i)
  | Resume i -> Machine.resume (Cluster.machine c i)
  | Partition (a, b) -> Link_faults.partition lf a b
  | Heal -> Link_faults.heal lf
  | Loss_burst (rate, dur) ->
      override knobs c "loss" ~dur
        ~get:(fun () -> Link_faults.loss_rate lf)
        ~set:(Link_faults.set_loss_rate lf) rate
  | Oneway (src, dst) -> Link_faults.cut_oneway lf ~src ~dst
  | Burst (p_gb, p_bg, loss_bad, dur) ->
      cond "burst" ~dur
        (fun cd -> cd.Link_faults.gilbert)
        (fun cd g -> { cd with gilbert = g })
        (Some { Link_faults.p_gb; p_bg; loss_good = 0.; loss_bad })
  | Duplicate (prob, dur) ->
      cond "dup" ~dur
        (fun cd -> cd.Link_faults.dup_prob)
        (fun cd p -> { cd with dup_prob = p })
        prob
  | Jitter (ns, dur) ->
      cond "jitter" ~dur
        (fun cd -> cd.Link_faults.jitter_ns)
        (fun cd j -> { cd with jitter_ns = j })
        ns
  | Corrupt (prob, dur) ->
      cond "corrupt" ~dur
        (fun cd -> cd.Link_faults.corrupt_prob)
        (fun cd p -> { cd with corrupt_prob = p })
        prob
  | Power_cycle_all outage ->
      (* Total power loss: every machine — already-crashed ones
         included — is down for [outage], then power returns and all
         of them reboot together.  Restarted machines do NOT get the
         per-machine [on_restart] rejoin hook: memory is gone
         cluster-wide, so there is no surviving group to rejoin —
         [on_power_up] owns recovery (from the stable store). *)
      on_power_down ();
      for i = 0 to Cluster.size c - 1 do
        Machine.crash (Cluster.machine c i)
      done;
      ignore
        (Engine.schedule c.Cluster.engine ~after:outage (fun () ->
             for i = 0 to Cluster.size c - 1 do
               Cluster.restart c i
             done;
             on_power_up ()))

let apply ?on_restart ?on_power_down ?on_power_up c sched =
  let now = Cluster.now c in
  let knobs = Hashtbl.create 5 in
  List.iter
    (fun { at; action } ->
      ignore
        (Engine.schedule c.Cluster.engine
           ~after:(max 0 (at - now))
           (fun () ->
             fire knobs ?on_restart ?on_power_down ?on_power_up c action)))
    sched

(* ----- random schedules ----- *)

let random ~seed ~n ?(horizon = Time.ms 2000) ?(power_cycles = false) () =
  (* Own random state, not the engine's: the schedule must be a pure
     function of [seed] so a failing seed replays identically from the
     CLI, regardless of what the workload drew from the engine RNG. *)
  let st = Random.State.make [| 0x5EED; seed |] in
  let int lo hi = lo + Random.State.full_int st (hi - lo + 1) in
  let rand_t () = int (Time.ms 50) horizon in
  let steps = ref [] in
  let push at action = steps := { at; action } :: !steps in
  (* Never crash a majority: auto-heal recovery demands a quorum of
     the pre-failure membership, so a schedule that crashes more can
     only end in [Not_enough_members] — legal, but boring. *)
  let crash_budget = ref ((n - 1) / 2) in
  let loss_burst () =
    let rate = float_of_int (int 20 300) /. 1000. in
    let dur = int (Time.ms 50) (Time.ms 500) in
    push (rand_t ()) (Loss_burst (rate, dur))
  in
  (* Probabilities are generated in 1/1000 steps so the %g text form
     round-trips exactly (see the text-form comment below). *)
  let milli lo hi = float_of_int (int lo hi) /. 1000. in
  let n_events = int 2 5 in
  for _ = 1 to n_events do
    match int 0 8 with
    | 0 when !crash_budget > 0 ->
        decr crash_budget;
        let i = Random.State.int st n in
        let at = rand_t () in
        push at (Crash i);
        if Random.State.bool st then
          push (at + int (Time.ms 300) (Time.ms 1500)) (Restart i)
    | 0 -> loss_burst ()
    | 1 ->
        let i = Random.State.int st n in
        let at = rand_t () in
        push at (Pause i);
        push (at + int (Time.ms 200) (Time.sec 2)) (Resume i)
    | 2 when n >= 2 ->
        let side = Array.init n (fun _ -> Random.State.bool st) in
        (* Force both sides non-empty, at two distinct indices. *)
        let i_t = Random.State.int st n in
        let i_f = (i_t + 1 + Random.State.int st (n - 1)) mod n in
        side.(i_t) <- true;
        side.(i_f) <- false;
        let pick v =
          Array.to_list side
          |> List.mapi (fun i s -> if s = v then Some i else None)
          |> List.filter_map Fun.id
        in
        let at = rand_t () in
        push at (Partition (pick true, pick false));
        push (at + int (Time.ms 100) (Time.ms 800)) Heal
    | 3 -> loss_burst ()
    | 4 when n >= 2 ->
        (* One-way cut: [dst] goes deaf to [src] but keeps talking.
           Healed with a full heal, like partitions. *)
        let src = Random.State.int st n in
        let dst = (src + 1 + Random.State.int st (n - 1)) mod n in
        let at = rand_t () in
        push at (Oneway (src, dst));
        push (at + int (Time.ms 100) (Time.ms 800)) Heal
    | 5 ->
        push (rand_t ())
          (Burst (milli 5 50, milli 100 500, milli 300 900,
                  int (Time.ms 100) (Time.ms 800)))
    | 6 ->
        push (rand_t ()) (Duplicate (milli 20 200, int (Time.ms 100) (Time.ms 800)))
    | 7 ->
        push (rand_t ())
          (Jitter (int (Time.us 200) (Time.ms 3), int (Time.ms 100) (Time.ms 800)))
    | _ ->
        push (rand_t ()) (Corrupt (milli 5 50, int (Time.ms 100) (Time.ms 800)))
  done;
  (* The power cycle is drawn AFTER the main loop, so schedules with
     [power_cycles:false] (the default, and every pre-existing caller)
     are byte-identical to what this seed always produced.  One per
     schedule: it takes everything down regardless of the crash budget
     — the (n-1)/2 bound protects quorum recovery among SURVIVORS, and
     a total power loss has none; durable recovery, not auto-heal, is
     what brings the group back. *)
  if power_cycles then
    push
      (int (horizon / 4) horizon)
      (Power_cycle_all (int (Time.ms 100) (Time.ms 400)));
  sort (List.rev !steps)

(* ----- text form -----

   Times in integer nanoseconds so [of_string (to_string s)] replays
   the exact schedule; loss rates are generated in 1/1000 steps, which
   %g prints and [float_of_string] reads back to the same float. *)

let ids l = String.concat "," (List.map string_of_int l)

let action_to_string = function
  | Crash i -> Printf.sprintf "crash %d" i
  | Restart i -> Printf.sprintf "restart %d" i
  | Pause i -> Printf.sprintf "pause %d" i
  | Resume i -> Printf.sprintf "resume %d" i
  | Partition (a, b) -> Printf.sprintf "part %s/%s" (ids a) (ids b)
  | Heal -> "heal"
  | Loss_burst (rate, dur) -> Printf.sprintf "loss %g %d" rate dur
  | Oneway (src, dst) -> Printf.sprintf "oneway %d %d" src dst
  | Burst (p_gb, p_bg, loss_bad, dur) ->
      Printf.sprintf "burst %g %g %g %d" p_gb p_bg loss_bad dur
  | Duplicate (prob, dur) -> Printf.sprintf "dup %g %d" prob dur
  | Jitter (ns, dur) -> Printf.sprintf "jitter %d %d" ns dur
  | Corrupt (prob, dur) -> Printf.sprintf "corrupt %g %d" prob dur
  | Power_cycle_all outage -> Printf.sprintf "powercycle %d" outage

let to_string sched =
  String.concat "; "
    (List.map (fun s -> Printf.sprintf "%d:%s" s.at (action_to_string s.action)) sched)

(* Every field is checked: a malformed one raises [Invalid_argument]
   naming the token, never a bare [Failure] from the number parsers.
   Integers (times, durations, machine ids) must be >= 0 and rates
   and probabilities within [0, 1]. *)
let bad what tok s =
  invalid_arg (Printf.sprintf "Fault.of_string: bad %s %S in %S" what tok s)

let action_of_string s =
  let int tok =
    match int_of_string_opt tok with
    | Some i when i >= 0 -> i
    | _ -> bad "integer" tok s
  in
  let prob tok =
    match float_of_string_opt tok with
    | Some p when p >= 0. && p <= 1. -> p
    | _ -> bad "probability" tok s
  in
  let ids l = List.map int (String.split_on_char ',' l) in
  match String.split_on_char ' ' (String.trim s) with
  | [ "crash"; i ] -> Crash (int i)
  | [ "restart"; i ] -> Restart (int i)
  | [ "pause"; i ] -> Pause (int i)
  | [ "resume"; i ] -> Resume (int i)
  | [ "part"; sides ] -> (
      match String.split_on_char '/' sides with
      | [ a; b ] -> Partition (ids a, ids b)
      | _ -> bad "partition" sides s)
  | [ "heal" ] -> Heal
  | [ "loss"; rate; dur ] -> Loss_burst (prob rate, int dur)
  | [ "oneway"; src; dst ] -> Oneway (int src, int dst)
  | [ "burst"; p_gb; p_bg; loss_bad; dur ] ->
      Burst (prob p_gb, prob p_bg, prob loss_bad, int dur)
  | [ "dup"; p; dur ] -> Duplicate (prob p, int dur)
  | [ "jitter"; ns; dur ] -> Jitter (int ns, int dur)
  | [ "corrupt"; p; dur ] -> Corrupt (prob p, int dur)
  | [ "powercycle"; outage ] -> Power_cycle_all (int outage)
  | words -> bad "action" (List.hd words) s

let of_string str =
  let step s =
    match String.index_opt s ':' with
    | None -> invalid_arg ("Fault.of_string: missing time in " ^ s)
    | Some i ->
        let at = String.trim (String.sub s 0 i) in
        {
          at =
            (match int_of_string_opt at with
            | Some t when t >= 0 -> t
            | _ -> bad "time" at s);
          action =
            action_of_string (String.sub s (i + 1) (String.length s - i - 1));
        }
  in
  String.split_on_char ';' str
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map step |> sort

let machines = function
  | Crash i | Restart i | Pause i | Resume i -> [ i ]
  | Partition (a, b) -> a @ b
  | Oneway (src, dst) -> [ src; dst ]
  | Heal | Loss_burst _ | Burst _ | Duplicate _ | Jitter _ | Corrupt _
  | Power_cycle_all _ ->
      []

let validate ~n sched =
  match
    List.find_opt
      (fun s -> List.exists (fun i -> i < 0 || i >= n) (machines s.action))
      sched
  with
  | None -> Ok ()
  | Some s ->
      Error
        (Printf.sprintf "step %S names a machine outside 0..%d"
           (Printf.sprintf "%d:%s" s.at (action_to_string s.action))
           (n - 1))

let pp ppf sched =
  List.iter
    (fun s ->
      Format.fprintf ppf "  %8.1f ms  %s@." (Time.to_ms s.at)
        (action_to_string s.action))
    sched
