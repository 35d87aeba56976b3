package main

// sizes fixes every input size of the three workloads. fullSizes is what
// the benchmark runs; the tests use tinySizes.
type sizes struct {
	setups     int // set-ups per run; setup_s is their median
	evalPoints int // top-k answers scored per tenant or partition during warm-fill; divides every period count

	// ingest-durable
	durArrivals   int // warm-fill arrivals: the whole generated stream
	durPeriods    int // periods in the stream
	durBatch      int // keys per binary frame
	durWindow     int // unacknowledged frames in flight
	durTail       int // arrivals logged after the last snapshot, replayed on recovery
	durTailBatch  int // keys per tail frame: one fsync each
	durRecoveries int // kill -9 recoveries per run; recovery_s is their median
	durMem        int // tracker bytes
	durK          int

	// http-multitenant
	mtTenants   int
	mtArrivals  int // per tenant
	mtBatch     int // keys per body insert
	mtPeriodLen int // arrivals per period (a few body batches)
	mtPreload   int // keys per preload insert
	mtTenantMem int
	mtK         int

	// cluster-gather
	clNodes         int
	clParts         int
	clReplicas      int
	clArrivals      int
	clPeriods       int
	clPreload       int // keys per preload insert
	clTenantMem     int
	clTrickleHz     float64 // producer inserts per second
	clTrickleKey    int     // keys per producer insert
	clReadsPerRound int     // coordinator top-k reads per gather round
	clK             int     // top-k per partition

	// in-process layer replay
	rpBatches    int // batches replayed through each ingest layer
	rpWALBatches int // of which appended to the standalone WAL
	rpTopK       int // TopK / top calls
	rpEncodes    int // EncodeTo / checkpoint calls
	rpRounds     int // gather rounds
}

var fullSizes = sizes{
	setups:     5,
	evalPoints: 4,

	durArrivals:   2_000_000,
	durPeriods:    16,
	durBatch:      512,
	durWindow:     8,
	durTail:       500_000,
	durTailBatch:  4096,
	durRecoveries: 3,
	durMem:        128 << 10,
	durK:          6000,

	mtTenants:   8,
	mtArrivals:  64_000,
	mtBatch:     32,
	mtPeriodLen: 128,
	mtPreload:   128,
	mtTenantMem: 8 << 10,
	mtK:         300,

	clNodes:         3,
	clParts:         16,
	clReplicas:      2,
	clArrivals:      640_000,
	clPeriods:       16,
	clPreload:       4096,
	clTenantMem:     8 << 10,
	clTrickleHz:     200,
	clTrickleKey:    8,
	clReadsPerRound: 4,
	clK:             300,

	rpBatches:    2000,
	rpWALBatches: 500,
	rpTopK:       200,
	rpEncodes:    20,
	rpRounds:     20,
}

var tinySizes = sizes{
	setups:     2,
	evalPoints: 2,

	durArrivals:   40_000,
	durPeriods:    4,
	durBatch:      512,
	durWindow:     8,
	durTail:       10_000,
	durTailBatch:  1024,
	durRecoveries: 2,
	durMem:        16 << 10,
	durK:          20,

	mtTenants:   2,
	mtArrivals:  2_560,
	mtBatch:     32,
	mtPeriodLen: 128,
	mtPreload:   128,
	mtTenantMem: 4 << 10,
	mtK:         10,

	clNodes:         3,
	clParts:         4,
	clReplicas:      2,
	clArrivals:      20_000,
	clPeriods:       4,
	clPreload:       1024,
	clTenantMem:     4 << 10,
	clTrickleHz:     100,
	clTrickleKey:    4,
	clReadsPerRound: 4,
	clK:             20,

	rpBatches:    50,
	rpWALBatches: 20,
	rpTopK:       10,
	rpEncodes:    3,
	rpRounds:     3,
}
