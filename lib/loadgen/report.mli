(** The loadgen sweep: saturation search across shard count × fabric,
    the knee-of-curve table, and the validated [BENCH_loadgen.json]
    emission shared by [bench/main.exe loadgen] and [amoeba loadgen
    --sweep]. *)

type params = {
  base : Driver.config;
      (** every trial's config; the sweep sets [shards], [hosts],
          [routers] and [net] per row *)
  slo : Saturation.slo;
  lo : float;  (** floor rate the search starts from *)
  tol : float;
  max_probes : int;
}

val default_params : smoke:bool -> params
(** Full: YCSB-A + 5 % 3-key transactions over {!Driver.default}, p99
    ≤ 50 ms at ≥ 95 % completion, 2 s windows.  Smoke: tiny windows,
    key space and probe budget. *)

val knee : params -> Saturation.outcome
(** The saturation search over [base]: open-loop {!Driver.run} trials
    until the highest rate meeting the SLO is bracketed. *)

type row = {
  shards : int;
  hosts : int;
  routers : int;
  net : string;  (** as {!Amoeba_net.Medium.net_of_string} accepts *)
  outcome : Saturation.outcome;
}

val sweep : ?progress:(row -> unit) -> smoke:bool -> params -> row list
(** One {!knee} search per configuration, [progress] called on each
    row as it lands; raises [Failure] on an unparseable [net].  Full:
    shard counts 1/2/4/8 on both the shared Ether and the switch, plus
    dup, reorder and bursty-loss rows — 11 configurations.  Smoke: two
    tiny ones, one with the adversarial profile. *)

val print_header : unit -> unit

val print_row : row -> unit

val to_json : params -> row list -> Bench_json.t
(** The full [BENCH_loadgen.json] document.  Always passes
    {!validate} by construction. *)

val validate : Bench_json.t -> (unit, string) result
(** The schema check: the document must carry
    [schema]/[suite]/[slo_p99_ms]/[rows], and every row the required
    fields ([shards], [hosts], [net], [mix], [knee_ops_per_sec],
    [p99_ms_at_knee], [completion_at_knee], [probes], [converged],
    [seed]) with the right JSON types. *)

val write_json : path:string -> params -> row list -> unit
(** Validates, then writes; raises [Failure] if validation fails (a
    schema bug, not an I/O condition). *)
