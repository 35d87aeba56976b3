package main

import (
	"fmt"
	"time"
)

// phase is one measured phase of a workload.
type phase struct {
	// opsPerS is the closed loop's rate at its median operation time:
	// operations in flight over the median time of one. Stalls, such as
	// CPU time stolen by other virtual machines, lengthen the tail and
	// leave it alone; a mean rate moved by up to 49% between runs of the
	// same code under such stalls, the median-based one by about 10%.
	opsPerS   float64
	ops       int64     // operations of the kind the workload names, for cpu_us_per_op
	opNs      float64   // end-to-end time of one operation, for reconciliation
	compare   float64   // the figure trace.overhead_share compares between halves
	acks      []float64 // write ack latencies in completion order, ms
	attempted int64
	failed    int64
	extra     map[string]metric // the workload's own metrics
}

// liveBench drives one workload against the live system.
type liveBench interface {
	// setup replaces any previous set-up with a fresh, warm-filled one
	// and returns how long it took in seconds.
	setup(i int) (float64, error)
	// accuracy scores the top-k answers recorded during the last
	// warm-fill.
	accuracy() (accuracy, error)
	measure(dur time.Duration, tr *tracer) (phase, error)
	rssMiB() (float64, error)
	// pids lists the running sigserver processes, whose CPU time counts
	// towards cpu_us_per_op.
	pids() []int
	// finish runs the workload's checks after the measured phase and
	// fills in its own fields of lv.
	finish(lv *live, traced bool) error
	// close stops every process and server the workload started.
	close()
}

// runLive sets a workload up several times, scores its accuracy, and
// runs the measured phase; traced, it runs an untraced and a traced half
// instead, for trace.overhead_share.
func runLive(e *env, traced bool, b liveBench, opName string) (*live, error) {
	defer b.close()
	lv := &live{metrics: map[string]metric{}, extra: map[string]metric{}, opName: opName}
	setups := e.sz.setups
	if traced {
		setups = 1
	}
	// Each set-up's wall time is scaled by the host speed the probe saw
	// during it, like cpu_us_per_op: over ten seeds the host's speed
	// moved by half, and raw set-up time with it.
	var secs, raw []float64
	for i := 0; i < setups; i++ {
		var s float64
		speed, _, err := withProbe(func() error {
			var err error
			s, err = b.setup(i)
			return err
		})
		if err != nil {
			return lv, err
		}
		raw = append(raw, s)
		secs = append(secs, s*speed)
	}
	fmt.Fprintf(e.out, "setup: %.3f s median as measured\n", median(raw))
	lv.metrics["setup_s"] = metric{median(secs), "s"}
	acc, err := b.accuracy()
	if err != nil {
		return lv, err
	}
	lv.metrics["precision_at_k"] = metric{acc.precision, "share"}
	lv.metrics["topk_are"] = metric{acc.are, "ratio"}
	settle()

	if traced {
		plain, err := b.measure(e.body()/2, nil)
		if err != nil {
			return lv, err
		}
		lv.spans = newTracer()
		spanned, err := b.measure(e.body()/2, lv.spans)
		if err != nil {
			return lv, err
		}
		lv.overhead = spanned.compare/plain.compare - 1
		lv.opNs = plain.opNs
		lv.attempted = plain.attempted + spanned.attempted
		lv.failed = plain.failed + spanned.failed
		return lv, b.finish(lv, true)
	}
	pids := b.pids()
	cpu0, err := cpuTotal(pids)
	if err != nil {
		return lv, err
	}
	var p phase
	speed, probeCPU, err := withProbe(func() error {
		var err error
		p, err = b.measure(e.body(), nil)
		return err
	})
	if err != nil {
		return lv, err
	}
	cpu1, err := cpuTotal(pids)
	if err != nil {
		return lv, err
	}
	cpuUs := float64(cpu1-cpu0-probeCPU) / 1e3 / float64(max(p.ops, 1))
	fmt.Fprintf(e.out, "cpu: %.1f us per op as measured, host speed %.3f of the reference\n", cpuUs, speed)
	lv.opNs, lv.attempted, lv.failed = p.opNs, p.attempted, p.failed
	lv.metrics["cpu_us_per_op"] = metric{cpuUs * speed, "us"}
	// Wall-clock speed moved with the host's load: over ten seeds the
	// quartile spread of ops_per_s and ack_p50_ms reached 40% and 51% of
	// their median, and of the tail more, past any bound the benchmark may
	// set, so they are reported unbounded. The bounded cost is the CPU
	// time per operation, which leaves out waiting and most stolen time,
	// scaled by the speed probe for the slowdown neighbours still cause.
	lv.extra["ops_per_s"] = metric{p.opsPerS, "1/s"}
	lv.extra["ack_p50_ms"] = metric{blockQuantile(p.acks, 0.5), "ms"}
	lv.extra["ack_p90_ms"] = metric{blockQuantile(p.acks, 0.9), "ms"}
	lv.extra["ack_p99_ms"] = metric{blockQuantile(p.acks, 0.99), "ms"}
	lv.metrics["success_share"] = metric{float64(p.attempted-p.failed) / float64(p.attempted), "share"}
	for k, v := range p.extra {
		lv.extra[k] = v
	}
	rss, err := b.rssMiB()
	if err != nil {
		return lv, err
	}
	lv.metrics["server_rss_mib"] = metric{rss, "MiB"}
	return lv, b.finish(lv, false)
}

// withProbe runs f while the speed probe runs beside it, and returns the
// host's speed over f and the probe's own CPU time.
func withProbe(f func() error) (speed float64, probeCPU time.Duration, err error) {
	stop := make(chan struct{})
	type probed struct {
		runs []time.Duration
		err  error
	}
	probes := make(chan probed, 1)
	go func() {
		runs, err := speedProbe(probeEvery, stop)
		probes <- probed{runs, err}
	}()
	err = f()
	close(stop)
	pr := <-probes
	if err == nil {
		err = pr.err
	}
	return probeSpeed(pr.runs), sumDurations(pr.runs), err
}
