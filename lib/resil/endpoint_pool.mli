(** Health-aware endpoint selection for a replica set.

    A pool tracks one slot per server address with a three-state health
    machine driven by observed request outcomes:

    - {b Up} — serving normally; eligible for routing.
    - {b Suspect} — at least [suspect_after] consecutive failures; only
      routed to when no Up endpoint is eligible.
    - {b Down} — at least [down_after] consecutive failures; parked
      behind a jittered re-probe deadline.  Once the deadline passes the
      endpoint becomes pickable again exactly once (a live-traffic
      probe); another failure pushes the deadline out with exponential
      backoff, a success returns it to Up.

    Routing is power-of-two-choices on an EWMA of observed latency: pick
    two distinct candidates from the healthiest non-empty tier, keep the
    faster.  Until two candidates have latency samples — or when [p2c]
    is off — the pool falls back to a rotating cursor, which is fully
    deterministic under a fixed request order (the chaos drills rely on
    this).

    Each slot of a replica set owns a {!Breaker} so one bad replica
    trips in isolation.  A lone endpoint gets none unless a
    [breaker_config] asks for it: with no failover target, a breaker
    there would only turn remaining retries into fast failures.  The
    pool holds the breakers so the registry labels line up, but never
    records outcomes on them: breaker accounting stays with the caller,
    which knows whether a failure was a real dependency fault or its own
    cancellation.  The pool itself never dials anything: callers report
    outcomes via {!note_ok} / {!note_failure} (or {!note_probe} for
    out-of-band health probes) and the pool only decides {e where to
    send next}.

    Thread-safe (one mutex); randomness comes from a seeded
    {!Gc_trace.Rng}, time from the monotonic {!Gc_prof.Clock}.  With a
    registry, each endpoint keeps an [endpoint_state] gauge ([0] up,
    [1] suspect, [2] down) labeled by address, plus the per-endpoint
    [breaker_state] gauges. *)

type state = Up | Suspect | Down

val state_name : state -> string
(** ["up" | "suspect" | "down"]. *)

type config = {
  suspect_after : int;  (** Consecutive failures before Suspect ([>= 1]). *)
  down_after : int;  (** Consecutive failures before Down ([>= suspect_after]). *)
  reprobe_after : float;  (** Base re-probe delay once Down, seconds. *)
  reprobe_max : float;  (** Re-probe backoff ceiling, seconds. *)
  reprobe_jitter : float;  (** Fractional jitter on re-probe delays, [[0, 1]]. *)
  ewma_alpha : float;  (** Weight of the newest latency sample, [(0, 1]]. *)
  latency_window : int;  (** Ring of recent latencies kept for quantiles. *)
  p2c : bool;  (** Power-of-two-choices on EWMA latency; rotation when off. *)
}

val default_config : config
(** Suspect after 1, down after 3, re-probe 0.5s doubling to 10s with
    25% jitter, EWMA alpha 0.3, 64-sample latency window, p2c on. *)

type t

val create :
  ?config:config ->
  ?breaker_config:Breaker.config ->
  ?registry:Gc_obs.Registry.t ->
  seed:int ->
  Gc_serve.Client.addr list ->
  t
(** Raises [Invalid_argument] on an empty address list or a config that
    violates the field constraints above. *)

val length : t -> int
val addr : t -> int -> Gc_serve.Client.addr
val breaker : t -> int -> Breaker.t option
(** [None] for a lone endpoint created without a [breaker_config]. *)

val state : t -> int -> state

val states : t -> (string * state) list
(** [(address, state)] per endpoint, in creation order. *)

val pick : ?avoid:int list -> t -> int
(** Choose an endpoint for the next request: healthiest non-empty tier
    (Up, then Suspect plus re-probe-due Down, then Down), p2c or
    rotation within the tier, skipping [avoid] — unless [avoid] covers
    every endpoint, in which case it is ignored (the pool always
    answers; the caller's failover loop bounds its own attempts). *)

val note_ok : t -> int -> latency_s:float -> unit
(** A request to endpoint [i] succeeded in [latency_s] seconds: reset it
    to Up and fold the sample into its EWMA and the pool's latency
    ring.  (Record the matching breaker outcome yourself.) *)

val note_failure : t -> int -> unit
(** A request to endpoint [i] failed at transport level: bump its
    consecutive-failure count (Suspect / Down per the thresholds) and
    schedule the jittered re-probe.  (Record the matching breaker
    outcome yourself.) *)

val note_probe : t -> int -> ok:bool -> unit
(** Outcome of an out-of-band health probe: success restores Up (no
    latency sample — probes answer from a hot path and would skew the
    hedge quantile), failure re-parks the endpoint. *)

val due_probes : t -> int list
(** Non-Up endpoints whose re-probe deadline has passed, in index order
    — the set an external prober should health-check now. *)

val latency_quantile : t -> float -> float option
(** [latency_quantile t q] is the nearest-rank [q]-quantile of the
    pool-wide ring of recent success latencies, or [None] before the
    first sample.  Feeds the hedge-delay computation. *)
