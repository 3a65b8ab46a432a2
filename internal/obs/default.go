package obs

// The process-wide default registry. The library packages (sim, protocol,
// core) record into it unless explicitly rebound, and the decor-* binaries
// export it via the -metrics flag.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Canonical metric names, grouped by emitting package. Each owner
// creates its instruments when it starts (sim, protocol and core at
// package init, service.New and session.New on their registry), so an
// export exposes every one of them at zero from the first scrape.
// DESIGN.md §7 documents the taxonomy.
const (
	// internal/sim engine event counters and queue-depth gauge.
	SimEvents     = "decor_sim_events_total"
	SimSent       = "decor_sim_messages_sent_total"
	SimDelivered  = "decor_sim_messages_delivered_total"
	SimDropped    = "decor_sim_messages_dropped_total"
	SimLost       = "decor_sim_messages_lost_total"
	SimTimers     = "decor_sim_timers_fired_total"
	SimQueueDepth = "decor_sim_queue_depth"

	// internal/sim chaos counters (fault-injection layer, DESIGN.md §10).
	SimDelayed          = "decor_sim_messages_delayed_total"
	SimDuplicated       = "decor_sim_messages_duplicated_total"
	SimPartitionDropped = "decor_sim_messages_partition_dropped_total"
	SimCrashes          = "decor_sim_crashes_total"
	SimRestarts         = "decor_sim_restarts_total"

	// internal/protocol heartbeat / election / placement counters.
	ProtoHeartbeats          = "decor_protocol_heartbeats_total"
	ProtoPlacementsAnnounced = "decor_protocol_placements_announced_total"
	ProtoPlacementsReceived  = "decor_protocol_placements_received_total"
	ProtoFailuresDetected    = "decor_protocol_failures_detected_total"
	ProtoLeaderChanges       = "decor_protocol_leader_changes_total"

	// internal/core incremental benefit-cache counters: how many cached
	// candidate benefits each delta update touched, and how often the
	// Voronoi scheme fell back to an exact knowledge-restricted
	// evaluation for a candidate near the communication-radius boundary
	// (DESIGN.md §8).
	CoreCacheDeltaUpdates = "decor_core_benefit_cache_delta_updates_total"
	CoreCacheFallbacks    = "decor_core_benefit_cache_fallback_evals_total"

	// internal/service request-path counters and gauges (decor-serve).
	ServePlanRequests   = "decor_serve_plan_requests_total"
	ServeRepairRequests = "decor_serve_repair_requests_total"
	ServeBadRequests    = "decor_serve_bad_requests_total" // 4xx (validation, size, decode)
	ServeRejected       = "decor_serve_rejected_total"     // 503 admission-queue overflow
	ServeTimeouts       = "decor_serve_deadline_exceeded_total"
	ServeErrors         = "decor_serve_errors_total" // 5xx other than rejection
	ServeCacheHits      = "decor_serve_cache_hits_total"
	ServeCacheMisses    = "decor_serve_cache_misses_total"
	ServeQueueDepth     = "decor_serve_queue_depth"
	ServeInflight       = "decor_serve_inflight_plans"
	// ServeHeapAllocs exposes the process's cumulative heap allocation
	// count (runtime/metrics /gc/heap/allocs:objects), refreshed on each
	// /metrics scrape. decor-load divides its before/after difference by
	// the request count to report allocs_per_request.
	ServeHeapAllocs = "decor_serve_go_mallocs_total"

	// internal/session field-session subsystem (DESIGN.md §14): owned
	// sessions (live + evicted snapshots), lifecycle counters, delta
	// throughput, quota rejections, and dropped (lagging) subscribers.
	SessionLive           = "decor_session_fields"
	SessionCreated        = "decor_session_created_total"
	SessionEvicted        = "decor_session_evicted_total"
	SessionRestored       = "decor_session_restored_total"
	SessionDropped        = "decor_session_dropped_total"
	SessionDeltas         = "decor_session_deltas_total"
	SessionQuotaRejected  = "decor_session_quota_rejected_total"
	SessionSubsDropped    = "decor_session_subscribers_dropped_total"
	SessionDeltaSeconds   = "decor_session_delta_seconds"
	SessionRestoreSeconds = "decor_session_restore_seconds"

	// Per-tenant labeled session series, capped at the same tenant
	// cardinality bound as the serve response counter.
	SessionTenantCreated = "decor_session_tenant_created_total"
	SessionTenantDeltas  = "decor_session_tenant_deltas_total"

	// decor-serve labeled series: responses by route, status and tenant
	// ("none" without an X-Decor-Tenant header; tenants past the
	// cardinality cap fold into "other"). The service resolves each
	// combination's counter once, so the hot path is one map probe + one
	// atomic.
	ServeResponses = "decor_serve_responses_total"

	// Phase-latency histograms (span names, unit: seconds).
	ServePlanSeconds            = "decor_serve_plan_seconds"    // worker execution only
	ServeRequestSeconds         = "decor_serve_request_seconds" // queue wait + execution
	CoreRoundSeconds            = "decor_core_round_seconds"
	CoreBenefitEvalSeconds      = "decor_core_benefit_eval_seconds"
	CoreCandidateScoringSeconds = "decor_core_candidate_scoring_seconds"
	CoreCacheBuildSeconds       = "decor_core_benefit_cache_build_seconds"
	ProtoLeaderElectionSeconds  = "decor_protocol_leader_election_seconds"
	ProtoHeartbeatRoundSeconds  = "decor_protocol_heartbeat_round_seconds"
)
