package treenet

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// WriteMetrics appends the rsa_treenet_* and rsa_tree_delta_* Prometheus
// series for one tree transport (and optional failure detector) to w.
// Either argument may be nil; both front-ends call this from their
// obs.Handler Extra callbacks — before this the transport's send errors
// were counted but unscrapeable.
func WriteMetrics(w io.Writer, t *Transport, det Detector) {
	if t == nil {
		return
	}
	st := t.Stats()
	obs.WriteMetric(w, "rsa_treenet_send_errors_total", "counter",
		"Tree messages dropped (unknown peer, full queue, failed dial or write).", float64(st.SendErrors))
	obs.WriteMetric(w, "rsa_treenet_queue_drops_total", "counter",
		"Tree messages dropped because a peer's send queue was full.", float64(st.QueueDrops))
	obs.WriteMetric(w, "rsa_treenet_dials_total", "counter",
		"Peer connections established.", float64(st.Dials))
	obs.WriteMetric(w, "rsa_treenet_reconnects_total", "counter",
		"Peer connections re-established after a break.", float64(st.Reconnects))
	obs.WriteMetric(w, "rsa_treenet_peers_connected", "gauge",
		"Live outbound peer connections.", float64(st.PeersConnected))
	fmt.Fprintf(w, "# HELP rsa_treenet_deadline_errors_total Socket deadline arming failures, by direction.\n")
	fmt.Fprintf(w, "# TYPE rsa_treenet_deadline_errors_total counter\n")
	fmt.Fprintf(w, "rsa_treenet_deadline_errors_total{op=\"read\"} %d\n", st.DeadlineErrorsRead)
	fmt.Fprintf(w, "rsa_treenet_deadline_errors_total{op=\"write\"} %d\n", st.DeadlineErrorsWrite)
	obs.WriteMetric(w, "rsa_treenet_write_timeouts_total", "counter",
		"Peer writes that failed with an expired deadline (stalled but live peer).", float64(st.WriteTimeouts))
	obs.WriteMetric(w, "rsa_treenet_bytes_sent_total", "counter",
		"Tree frame bytes written to peer sockets, length prefix included.", float64(st.BytesSent))
	obs.WriteMetric(w, "rsa_treenet_bytes_received_total", "counter",
		"Tree frame bytes read from inbound connections, length prefix included.", float64(st.BytesReceived))
	obs.WriteMetric(w, "rsa_tree_delta_frames_total", "counter",
		"Delta-compressed aggregate frames encoded.", float64(st.Delta.Frames))
	obs.WriteMetric(w, "rsa_tree_delta_full_frames_total", "counter",
		"Full-state resync frames among them.", float64(st.Delta.FullFrames))
	obs.WriteMetric(w, "rsa_tree_delta_entries_sent_total", "counter",
		"Per-principal entries transmitted on delta streams.", float64(st.Delta.EntriesSent))
	obs.WriteMetric(w, "rsa_tree_delta_entries_suppressed_total", "counter",
		"Per-principal entries withheld as under-threshold.", float64(st.Delta.EntriesSuppressed))
	obs.WriteMetric(w, "rsa_tree_delta_bytes_saved_total", "counter",
		"Wire bytes avoided by delta suppression: dense payload size minus the sparse payload sent.", float64(st.Delta.BytesSaved))
	obs.WriteMetric(w, "rsa_tree_delta_desyncs_total", "counter",
		"Inbound delta streams that hit a sequence gap and waited for a resync.", float64(st.Delta.Desyncs))
	if det != nil {
		obs.WriteMetric(w, "rsa_treenet_reparents_total", "counter",
			"Times this node rewired itself around a silent tree neighbor.", float64(det.Reparents()))
	}
}
