(** The persistent multi-tenant gateway server.

    A server is a round-based serving loop around
    {!Deflection_gateway.Gateway.run_batch}: requests arrive on a bounded
    ingress queue ({!offer}), each {!run_round} admits up to a batch of
    them — grouped per tenant, each tenant's sub-batch running under the
    server's admission record with its own verdict cache and fuel budget
    — and the verdict caches are periodically sealed to host storage
    through {!Persist} so a restarted server re-serves the same workload
    warm.

    {b Isolation (Occlum model).} Tenants are isolated structurally: one
    {!Deflection_verifier.Verifier.Cache} per tenant, trimmed to that
    tenant's entry quota only at round boundaries, so another tenant's
    eviction pressure cannot evict a verdict, and a poisoned single-flight
    claim cannot block anyone (and since the verifier-cache fix, not even
    the tenant itself — waiters convert to a miss). An in-flight quota
    caps how much of a round's batch one tenant can claim; over-quota
    requests stay queued without blocking the tenants behind them, and a
    fuel quota bounds how long a tenant's admitted code may run.

    {b Admission control.} The ingress queue is bounded; offers beyond
    capacity are shed with a typed [Overloaded] rejection carrying a
    retry-after hint ({!exit_overloaded} at the CLI). Shedding is
    deterministic: it depends on the arrival order and queue state alone,
    never on timing or the domain schedule.

    {b Determinism.} Everything the server reports except wall-clock
    latency histograms (isolated under a ["timing"] key in {!doc}) is a
    function of (config, request sequence, prior sealed state): results,
    per-tenant accounting, cache hit/miss totals, trim victims (epoch
    LRU, ties on key bytes), and shed decisions are identical for any
    worker count — [suite_server] pins K=1 vs K=4. *)

module Bootstrap = Deflection.Bootstrap
module Gateway = Deflection_gateway.Gateway
module Verifier = Deflection_verifier.Verifier
module Chaos = Deflection_chaos.Chaos
module Json = Deflection_telemetry.Json

(** Per-tenant resource bounds. *)
type quota = {
  max_entries : int;  (** verdict-cache entries kept across rounds *)
  max_inflight : int;  (** sessions admitted per round *)
  fuel : int option;  (** watchdog fuel per session; [None] = unlimited *)
}

val default_quota : quota
(** 64 entries, 8 in-flight, no fuel cap. *)

type tenant_config = { t_name : string; t_quota : quota }

type config = {
  enclave : Bootstrap.config;
      (** the admission record every tenant's sessions run under (default
          {!Bootstrap.default_config}). Per tenant sub-batch the server
          overrides three fields: [verifier_cache] (the tenant's cache),
          [interp] (fuel-capped by the tenant quota) and [audit] (the
          server's log). [verification] is bound into each verdict-cache
          key and carried on every persisted entry — recovery refuses to
          warm a cache with entries sealed under a different mode. *)
  tenants : tenant_config list;
  queue_capacity : int;
  batch_size : int;  (** sessions admitted per round, across tenants *)
  workers : int;  (** domain fan-out inside each tenant sub-batch *)
  seed : int64;  (** drives the load generator's arrival schedule *)
  state_dir : string option;  (** sealed-cache persistence root; [None] = no persistence *)
  persist_every : int;  (** seal every N rounds (0 = only at shutdown) *)
  segment_entries : int;
}

val default_config : config
(** 4 tenants [t0]-[t3] with {!default_quota} ([t3] fuel-capped), queue
    64, batch 8, 1 worker, seed 7, no persistence. *)

(** Why an offer was refused. *)
type reject_reason =
  | Overloaded of { retry_after_rounds : int }
      (** ingress queue full; retry after ~this many rounds drain *)
  | Unknown_tenant

val exit_overloaded : int
(** 13 — the CLI exit code for a run that shed more than its tolerated
    fraction. *)

val exit_recovery_failure : int
(** 14 — the CLI exit code when [--expect-warm] found no recovered
    warmness after a restart. *)

type t

val create : ?chaos:Chaos.t -> config -> t
(** Build the server; when [config.state_dir] is set, load and verify the
    sealed verdict cache found there (per-segment, fail-closed — see
    {!Persist}) and preload every surviving entry into its tenant's
    cache. {!recovery} reports what happened. *)

val config : t -> config
val round : t -> int
val killed : t -> bool

val recovery : t -> Persist.load_report option
(** [None] when the server was built without persistence. *)

val offer : t -> tenant:string -> Gateway.job -> [ `Queued | `Rejected of reject_reason ]

val run_round : t -> [ `Ok | `Killed ]
(** Admit up to [batch_size] queued requests (skipping, not blocking on,
    tenants at their in-flight quota), run them as per-tenant sub-batches
    over [workers] domains, fold the results into the server's
    accounting, trim each tenant cache to its quota, and seal state if
    the persistence cadence says so. [`Killed] means a chaos kill point
    fired: the server stopped abruptly — no trim, no seal, queue lost —
    exactly the crash the sealed cache must recover from. *)

val drain : t -> unit
(** Run rounds until the ingress queue is empty (or a kill point fires). *)

val shutdown : t -> unit
(** Graceful stop: {!drain}, then seal the verdict caches and audit log
    regardless of cadence. *)

val audit_doc : t -> Json.t
(** Seal the admission audit log (non-destructive) — every admitted
    session appended its verdict record. *)

val results : t -> (string * int) list
(** [(label, exit code)] of every admitted session, in admission order. *)

val doc : t -> Json.t
(** The [deflection-server/1] report: offered/admitted/shed/rejected
    accounting (global and per tenant, with quota and cache stats),
    queue-wait round histogram, recovery report, exit-code histogram —
    all deterministic — plus wall-clock latency histograms under
    ["timing"]. *)

(** {2 Open-loop load generation} *)

module Load : sig
  val arrivals :
    config -> offered:int -> rounds:int -> round:int -> (string * Gateway.job) list
  (** The deterministic arrival schedule: round [round]'s [(tenant, job)]
      list of an [offered]-requests-over-[rounds] open-loop run, derived
      from [config.seed]. The mix per tenant cycles compliant variants
      (more distinct binaries than the entry quota, so trims happen),
      aborting programs, policy-rejected programs; a fuel-capped tenant
      gets compliant programs its budget cannot finish; a slice goes to
      an unknown tenant. Includes any pending chaos queue-storm burst
      when driven through {!offer_load}. *)

  val expected_exit : config -> string -> int option
  (** The oracle: the exit code an admitted session with this label must
      produce — 0 compliant, 2 rejected, 9 abort, 11 fuel-capped tenant.
      [None] for labels the generator did not produce. Any admitted
      result that disagrees is a soundness violation (an admitted
      rejection is a fail-open). *)
end

val offer_load : t -> offered:int -> rounds:int -> unit
(** Offer the current round's {!Load.arrivals} (plus any chaos
    queue-storm burst) to the ingress queue. *)

val serve_load :
  ?on_round:(int -> unit) -> t -> offered:int -> rounds:int -> [ `Done | `Killed ]
(** Drive the standard loop: for each round, {!offer_load} then
    {!run_round}; then {!drain} and {!shutdown}. [on_round r] (default
    none) runs after round [r] completed without a chaos kill — the CLI
    re-seals the audit document there, and a scripted SIGKILL exits from
    it. *)

(** {2 Chaos campaign} *)

type campaign_case = {
  c_seed : int64;
  c_plan : Chaos.plan;
  c_killed : int;  (** abrupt deaths survived (kill points fired) *)
  c_admitted : int;
  c_shed : int;
  c_recovery_discarded : int;  (** tampered segments discarded across restarts *)
  c_violations : string list;
}

type campaign = {
  base_seed : int64;
  cases : campaign_case list;
  total_violations : int;
  fired : (string * int) list;
}

val chaos_campaign :
  ?base_seed:int64 -> ?seeds:int -> ?offered:int -> state_root:string -> unit -> campaign
(** For each seed: generate a server fault plan
    ({!Chaos.generate_server}), run a small multi-tenant load with
    persistence under that plan — restarting the server mid-run (and
    after every kill point) against the same state dir, so load-time
    tamper faults meet a real recovery — and check every admitted result
    against {!Load.expected_exit}, the audit chain against
    {!Deflection_audit.Audit.verify}, and the final sealed state against
    a clean reload. Zero violations means: every tamper class degraded to
    cold re-verification, and nothing was ever admitted from a forged
    verdict. *)

val campaign_to_json : campaign -> Json.t
