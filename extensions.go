package mpcp

import "mpcp/internal/server"

// Aperiodic service (Section 3.1), re-exported.
type (
	// ServerConfig describes a polling server task.
	ServerConfig = server.Config
	// AperiodicRequest is one aperiodic arrival.
	AperiodicRequest = server.Request
	// AperiodicServed is a request with its computed completion time.
	AperiodicServed = server.Served
)

// PollingServerTask builds the periodic server task for a Builder-less
// system; with the Builder, add the returned task's body via Task and the
// same Period/Budget split.
func PollingServerTask(cfg ServerConfig) (*Task, error) { return server.Task(cfg) }

// ServePolling replays a recorded trace's server execution against an
// aperiodic request stream under strict polling semantics and returns
// per-request completions.
func ServePolling(log *Trace, serverID TaskID, reqs []AperiodicRequest) ([]AperiodicServed, error) {
	return server.ServePolling(log, serverID, reqs)
}

// PollingResponseBound returns the isolated-request worst-case response
// bound of a polling server.
func PollingResponseBound(period, budget, work int) int {
	return server.PollingResponseBound(period, budget, work)
}

// GenerateAperiodicStream builds a deterministic pseudo-Poisson request
// stream.
func GenerateAperiodicStream(seed int64, horizon int, meanInterarrival float64, workMin, workMax int) []AperiodicRequest {
	return server.GenerateStream(seed, horizon, meanInterarrival, workMin, workMax)
}

// AddTask inserts a pre-built task (e.g. from PollingServerTask) into a
// Builder-produced system; call Revalidate afterwards.
func AddTask(sys *System, t *Task) { sys.AddTask(t) }
