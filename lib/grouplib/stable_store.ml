open Amoeba_sim
open Amoeba_net

type counters = {
  mutable kv_writes : int;
  mutable writes_dropped : int;
  mutable wal_appends : int;
  mutable fsyncs : int;
  mutable wal_trims : int;
  mutable records_replayed : int;
  mutable torn_tails : int;
  mutable checksum_rejects : int;
}

type replay = {
  records : (int * bytes) list;
  torn_tails : int;
  checksum_rejects : int;
  bytes_scanned : int;
}

(* One append-only log.  [buf] is the full platter-plus-write-cache
   image; [durable] is how much of it is guaranteed to survive a power
   failure (advanced by fsync, or by a trim, which is a rewrite).  A
   crash hook turns the cache suffix into a torn tail. *)
type wal = { buf : Buffer.t; mutable durable : int }

type t = {
  kv : (string * string, bytes) Hashtbl.t;
  wals : (string * string, wal) Hashtbl.t;
  hooked : (string, unit) Hashtbl.t;
  c : counters;
}

let create () =
  {
    kv = Hashtbl.create 32;
    wals = Hashtbl.create 32;
    hooked = Hashtbl.create 8;
    c =
      {
        kv_writes = 0;
        writes_dropped = 0;
        wal_appends = 0;
        fsyncs = 0;
        wal_trims = 0;
        records_replayed = 0;
        torn_tails = 0;
        checksum_rejects = 0;
      };
  }

let counters t = t.c

(* FNV-1a, folded to 30 bits so the decimal text form stays short. *)
let checksum b =
  let h = ref 0x811c9dc5 in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h land 0x3FFFFFFF

let wal_of t machine_name log =
  let key = (machine_name, log) in
  match Hashtbl.find_opt t.wals key with
  | Some w -> w
  | None ->
      let w = { buf = Buffer.create 256; durable = 0 } in
      Hashtbl.replace t.wals key w;
      w

(* Power loss: everything beyond the durable frontier was only in the
   disk's volatile write cache.  A deterministic fragment of it — some
   prefix of the in-flight bytes — made it to the platter before the
   power went; the rest is gone.  Replay sees the fragment as a torn
   tail and truncates it. *)
let torn_keep ~machine ~log ~durable ~cached =
  checksum
    (Bytes.of_string (Printf.sprintf "%s|%s|%d|%d" machine log durable cached))
  mod (cached + 1)

let power_loss t machine_name =
  Hashtbl.iter
    (fun (m, log) w ->
      if m = machine_name then begin
        let len = Buffer.length w.buf in
        if len > w.durable then begin
          let keep =
            torn_keep ~machine:m ~log ~durable:w.durable ~cached:(len - w.durable)
          in
          Buffer.truncate w.buf (w.durable + keep);
          w.durable <- Buffer.length w.buf
        end
      end)
    t.wals

let ensure_hook t machine =
  let name = Machine.name machine in
  if not (Hashtbl.mem t.hooked name) then begin
    Hashtbl.replace t.hooked name ();
    Machine.on_crash machine (fun () -> power_loss t name)
  end

let disk_of machine = (Machine.cost machine).Cost_model.disk

(* One disk I/O on [machine]: take the spindle, run [prepare] (bytes
   land in the write cache; returns the I/O's duration), hold the
   spindle for that long (a slice of it costs CPU — the transfer
   itself is DMA), then [commit] — the durability point — and release.
   If the machine dies mid-transfer the commit never happens: a fiber
   in the machine's group is cancelled outright, and a harness fiber
   that survives sees the generation check fail and skips the tail.
   Returns false (and counts a dropped write) when nothing was
   committed. *)
let io t machine ~prepare ~commit =
  if not (Machine.is_alive machine) then begin
    t.c.writes_dropped <- t.c.writes_dropped + 1;
    false
  end
  else begin
    let gen = Machine.restarts machine in
    let disk = Machine.disk machine in
    let live () = Machine.is_alive machine && Machine.restarts machine = gen in
    Resource.acquire disk;
    let ok =
      if not (live ()) then false
      else begin
        let cost = prepare () in
        Resource.consume (Machine.cpu machine) (cost / 10);
        Engine.sleep (Machine.engine machine) cost;
        if live () then begin
          commit ();
          true
        end
        else false
      end
    in
    Resource.release disk;
    if not ok then t.c.writes_dropped <- t.c.writes_dropped + 1;
    ok
  end

(* Checkpoint-style write: build the new value to the side, one atomic
   rename at I/O completion.  A crash mid-write leaves the old value
   intact — never a half-written checkpoint (torn checkpoints in tests
   are injected with [truncate_value]). *)
let write t machine ~key value =
  ensure_hook t machine;
  let d = disk_of machine in
  let name = Machine.name machine in
  let ok =
    io t machine
      ~prepare:(fun () ->
        d.Cost_model.disk_seek_ns
        + (Bytes.length value * d.Cost_model.disk_ns_per_byte)
        + d.Cost_model.disk_fsync_ns)
      ~commit:(fun () -> Hashtbl.replace t.kv (name, key) (Bytes.copy value))
  in
  if ok then t.c.kv_writes <- t.c.kv_writes + 1;
  ok

let read t ~machine_name ~key =
  Option.map Bytes.copy (Hashtbl.find_opt t.kv (machine_name, key))

let remove t ~machine_name ~key = Hashtbl.remove t.kv (machine_name, key)

(* Record framing: "<index> <len> <crc> " in decimal text, then [len]
   raw payload bytes.  Parsed by lengths, so payloads may contain
   anything. *)
let add_record buf ~index payload =
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d " index (Bytes.length payload) (checksum payload));
  Buffer.add_bytes buf payload

exception Stop

(* Scan a log image into records.  A record that runs off the end of
   the image (header or payload) is a torn tail: truncated, counted,
   scan ends.  A record whose header is garbled or whose payload fails
   its checksum is damage: counted as a reject and the scan REFUSES
   the whole suffix — recovery must never apply bytes after a damaged
   record, because nothing downstream of it can be trusted. *)
let parse data =
  let n = String.length data in
  let records = ref [] in
  let torn = ref 0 in
  let rejects = ref 0 in
  let pos = ref 0 in
  (try
     while !pos < n do
       let read_int () =
         let start = !pos in
         let j = ref start in
         while !j < n && String.get data !j <> ' ' do
           incr j
         done;
         if !j >= n then begin
           incr torn;
           raise Stop
         end;
         let s = String.sub data start (!j - start) in
         pos := !j + 1;
         match int_of_string_opt s with
         | Some v when v >= 0 -> v
         | _ ->
             incr rejects;
             raise Stop
       in
       let index = read_int () in
       let len = read_int () in
       let crc = read_int () in
       if len > n - !pos then begin
         incr torn;
         raise Stop
       end;
       let payload = Bytes.of_string (String.sub data !pos len) in
       pos := !pos + len;
       if checksum payload <> crc then begin
         incr rejects;
         raise Stop
       end;
       records := (index, payload) :: !records
     done
   with Stop -> ());
  (List.rev !records, !torn, !rejects)

let wal_append t machine ~log ?(sync = false) ~index payload =
  ensure_hook t machine;
  let d = disk_of machine in
  let w = wal_of t (Machine.name machine) log in
  let ok =
    io t machine
      ~prepare:(fun () ->
        let before = Buffer.length w.buf in
        add_record w.buf ~index payload;
        d.Cost_model.disk_seek_ns
        + ((Buffer.length w.buf - before) * d.Cost_model.disk_ns_per_byte)
        + if sync then d.Cost_model.disk_fsync_ns else 0)
      ~commit:(fun () -> if sync then w.durable <- Buffer.length w.buf)
  in
  if ok then begin
    t.c.wal_appends <- t.c.wal_appends + 1;
    if sync then t.c.fsyncs <- t.c.fsyncs + 1
  end;
  ok

let wal_sync t machine ~log =
  ensure_hook t machine;
  let d = disk_of machine in
  let w = wal_of t (Machine.name machine) log in
  let ok =
    io t machine
      ~prepare:(fun () -> d.Cost_model.disk_fsync_ns)
      ~commit:(fun () -> w.durable <- Buffer.length w.buf)
  in
  if ok then t.c.fsyncs <- t.c.fsyncs + 1;
  ok

(* Drop records with index <= upto by rewriting the log head.  The
   filtered image is computed under the spindle (appends can't
   interleave) and swapped in at commit, with the rewrite counting as
   its own sync: a crash mid-trim leaves the untrimmed log — recovery
   replays a few extra records and skips them by index. *)
let wal_trim t machine ~log ~upto =
  ensure_hook t machine;
  let d = disk_of machine in
  let w = wal_of t (Machine.name machine) log in
  let out = Buffer.create 256 in
  let ok =
    io t machine
      ~prepare:(fun () ->
        let records, _, _ = parse (Buffer.contents w.buf) in
        List.iter
          (fun (i, p) -> if i > upto then add_record out ~index:i p)
          records;
        d.Cost_model.disk_seek_ns
        + (Buffer.length out * d.Cost_model.disk_ns_per_byte)
        + d.Cost_model.disk_fsync_ns)
      ~commit:(fun () ->
        Buffer.clear w.buf;
        Buffer.add_buffer w.buf out;
        w.durable <- Buffer.length w.buf)
  in
  if ok then t.c.wal_trims <- t.c.wal_trims + 1;
  ok

let wal_reset t ~machine_name ~log =
  match Hashtbl.find_opt t.wals (machine_name, log) with
  | Some w ->
      Buffer.clear w.buf;
      w.durable <- 0
  | None -> ()

let wal_size t ~machine_name ~log =
  match Hashtbl.find_opt t.wals (machine_name, log) with
  | Some w -> Buffer.length w.buf
  | None -> 0

let wal_durable t ~machine_name ~log =
  match Hashtbl.find_opt t.wals (machine_name, log) with
  | Some w -> w.durable
  | None -> 0

let wal_read t ~machine_name ~log =
  let data =
    match Hashtbl.find_opt t.wals (machine_name, log) with
    | Some w -> Buffer.contents w.buf
    | None -> ""
  in
  let records, torn_tails, checksum_rejects = parse data in
  { records; torn_tails; checksum_rejects; bytes_scanned = String.length data }

let wal_replay t machine ~log =
  ensure_hook t machine;
  let d = disk_of machine in
  let name = Machine.name machine in
  let size = wal_size t ~machine_name:name ~log in
  ignore
    (io t machine
       ~prepare:(fun () ->
         d.Cost_model.disk_seek_ns + (size * d.Cost_model.disk_ns_per_byte))
       ~commit:(fun () -> ()));
  let rp = wal_read t ~machine_name:name ~log in
  t.c.records_replayed <- t.c.records_replayed + List.length rp.records;
  t.c.torn_tails <- t.c.torn_tails + rp.torn_tails;
  t.c.checksum_rejects <- t.c.checksum_rejects + rp.checksum_rejects;
  rp

let corrupt_wal t ~machine_name ~log ~at =
  match Hashtbl.find_opt t.wals (machine_name, log) with
  | Some w when at >= 0 && at < Buffer.length w.buf ->
      let b = Buffer.to_bytes w.buf in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x40));
      Buffer.clear w.buf;
      Buffer.add_bytes w.buf b
  | _ -> ()

let truncate_value t ~machine_name ~key ~len =
  match Hashtbl.find_opt t.kv (machine_name, key) with
  | Some v when len >= 0 && len < Bytes.length v ->
      Hashtbl.replace t.kv (machine_name, key) (Bytes.sub v 0 len)
  | _ -> ()
