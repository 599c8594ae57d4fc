package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Fleet-engine metric names (see internal/fleet). Per-shard series are
// suffixed with the shard index at registration time via FleetShardMetric,
// keeping the catalogue here in one place.
const (
	MetricFleetStreams          = "awd_fleet_streams"
	MetricFleetShards           = "awd_fleet_shards"
	MetricFleetSteps            = "awd_fleet_steps_total"
	MetricFleetBatches          = "awd_fleet_batches_total"
	MetricFleetAlarms           = "awd_fleet_alarms_total"
	MetricFleetQueueDepth       = "awd_fleet_runq_depth"
	MetricFleetDeadlinePressure = "awd_fleet_deadline_pressure"
	MetricFleetReanchors        = "awd_fleet_deadline_reanchors_total"
	MetricFleetShardBatchUS     = "awd_fleet_shard_batch_us"     // prefix; see FleetShardMetric
	MetricFleetShardSteps       = "awd_fleet_shard_steps_total"  // prefix; see FleetShardMetric
	MetricFleetShardAlarms      = "awd_fleet_shard_alarms_total" // prefix; see FleetShardMetric
	MetricFleetShardStreams     = "awd_fleet_shard_streams"      // prefix; see FleetShardMetric
)

// FleetBatchLatencyBuckets are the µs buckets for one shard batch step:
// a batch spans one stream (a few µs with deadline search) up to hundreds.
var FleetBatchLatencyBuckets = []float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000}

// DeadlinePressureBuckets bucket the fleet-wide deadline-pressure metric:
// the fraction of a shard certificate's proven slack radius a stream's
// trusted state has consumed this step (see DESIGN.md §9). 0 means the
// state sits on a fresh anchor with the full distance-to-unsafe slack
// budget ahead of it; 1 means the budget is exhausted and the stream's
// next deadline query pays a full reachability re-scan (and its deadline
// may shrink). The buckets concentrate near 1 because that is where an
// operator needs warning.
var DeadlinePressureBuckets = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}

// FleetShardMetric returns a per-shard series name for a catalogue prefix
// and shard index, e.g. FleetShardMetric(MetricFleetShardSteps, 3) =
// "awd_fleet_shard_steps_total_3".
func FleetShardMetric(prefix string, shard int) string {
	return fmt.Sprintf("%s_%d", prefix, shard)
}

// FleetShardBatchMetric returns the per-shard batch-latency histogram name
// for a shard index, e.g. awd_fleet_shard_batch_us_3.
func FleetShardBatchMetric(shard int) string {
	return FleetShardMetric(MetricFleetShardBatchUS, shard)
}

// ShardRollup aggregates one fleet shard's series out of a Snapshot.
type ShardRollup struct {
	Shard   int   `json:"shard"`
	Streams int   `json:"streams"`
	Steps   int64 `json:"steps"`
	Alarms  int64 `json:"alarms"`
	// BatchUS is the shard's batch-step latency histogram (microseconds).
	BatchUS MetricValue `json:"batch_us"`
}

// FleetRollup is the fleet-wide operational picture assembled from one
// Snapshot: engine totals, the deadline-pressure distribution, and one
// rollup per shard. Assembly is O(shards·log metrics) — it touches only
// registered series, never per-stream state.
type FleetRollup struct {
	Streams    int   `json:"streams"`
	Shards     int   `json:"shards"`
	Steps      int64 `json:"steps"`
	Batches    int64 `json:"batches"`
	Alarms     int64 `json:"alarms"`
	QueueDepth int   `json:"queue_depth"`
	// DeadlinePressure is the fleet-wide slack-consumption histogram; its
	// Count is zero when no adaptive stream has run a certified deadline
	// check yet.
	DeadlinePressure MetricValue   `json:"deadline_pressure"`
	PerShard         []ShardRollup `json:"per_shard"`
}

// FleetRollupFromSnapshot assembles the fleet rollup from a snapshot. The
// second return is false when the snapshot carries no fleet engine metrics
// at all (no fleet ran behind this registry).
func FleetRollupFromSnapshot(s Snapshot) (FleetRollup, bool) {
	if _, ok := s.Get(MetricFleetStreams); !ok {
		return FleetRollup{}, false
	}
	r := FleetRollup{
		Streams:    int(s.GaugeValue(MetricFleetStreams)),
		Shards:     int(s.GaugeValue(MetricFleetShards)),
		Steps:      s.CounterValue(MetricFleetSteps),
		Batches:    s.CounterValue(MetricFleetBatches),
		Alarms:     s.CounterValue(MetricFleetAlarms),
		QueueDepth: int(s.GaugeValue(MetricFleetQueueDepth)),
	}
	r.DeadlinePressure, _ = s.HistogramValue(MetricFleetDeadlinePressure)
	r.PerShard = make([]ShardRollup, 0, r.Shards)
	for i := 0; i < r.Shards; i++ {
		sr := ShardRollup{
			Shard:   i,
			Streams: int(s.GaugeValue(FleetShardMetric(MetricFleetShardStreams, i))),
			Steps:   s.CounterValue(FleetShardMetric(MetricFleetShardSteps, i)),
			Alarms:  s.CounterValue(FleetShardMetric(MetricFleetShardAlarms, i)),
		}
		sr.BatchUS, _ = s.HistogramValue(FleetShardBatchMetric(i))
		r.PerShard = append(r.PerShard, sr)
	}
	return r, true
}

// ShardIndex parses the shard index off a per-shard series name given its
// catalogue prefix; ok is false when name is not prefix + "_" + integer.
func ShardIndex(prefix, name string) (int, bool) {
	if !strings.HasPrefix(name, prefix+"_") {
		return 0, false
	}
	n, err := strconv.Atoi(name[len(prefix)+1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
