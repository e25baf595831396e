package replica

import "sensorcal/internal/obs"

// metrics is the replica tier's own instrument panel, alongside the RED
// metrics the HTTP middleware already records per route.
type metrics struct {
	forwardedReadings *obs.Counter
	forwardErrors     *obs.Counter
	replicationErrors *obs.Counter
	mergeCloses       *obs.Counter
	mergeEpochs       *obs.Counter
	drainPeerErrors   *obs.Counter
	installPeerErrors *obs.Counter
	activityPeerErrs  *obs.Counter
	catchupRecords    *obs.Counter
	catchupFailures   *obs.Counter
	authRejects       *obs.Counter
	drainRestages     *obs.Counter
	handoffEpochs     *obs.Counter
	handoffErrors     *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &metrics{
		forwardedReadings: reg.Counter("replica_forwarded_readings_total", "Misrouted readings proxied to their ring owner."),
		forwardErrors:     reg.Counter("replica_forward_errors_total", "Forward attempts that failed; the whole submission sheds with 503."),
		replicationErrors: reg.Counter("replica_replication_errors_total", "Best-effort registration broadcasts that failed."),
		mergeCloses:       reg.Counter("replica_merge_closes_total", "Coordinator merge-close passes."),
		mergeEpochs:       reg.Counter("replica_merge_epochs_total", "Epochs closed by merge-close passes."),
		drainPeerErrors:   reg.Counter("replica_drain_peer_errors_total", "Peers unreachable during a drain; their pending epochs close on a later pass."),
		installPeerErrors: reg.Counter("replica_install_peer_errors_total", "Followers that failed to install a close result."),
		activityPeerErrs:  reg.Counter("replica_activity_peer_errors_total", "Peers unreachable during a fleet-view freshness merge."),
		catchupRecords:    reg.Counter("replica_catchup_records_total", "Records applied during snapshot catch-up."),
		catchupFailures:   reg.Counter("replica_catchup_failures_total", "Catch-up attempts that failed."),
		authRejects:       reg.Counter("replica_auth_rejects_total", "Peer-protocol requests rejected for a missing or wrong ring credential."),
		drainRestages:     reg.Counter("replica_drain_restages_total", "Drains restaged into pending because the response failed mid-write."),
		handoffEpochs:     reg.Counter("replica_handoff_epochs_total", "Pending epochs restaged from a shutting-down peer's handoff."),
		handoffErrors:     reg.Counter("replica_handoff_errors_total", "Shutdown handoffs to the coordinator that failed (epochs restaged locally)."),
	}
}
