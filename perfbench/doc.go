// Command perfbench is the benchmark of the mapping service: how fast the
// smallest NoC supporting every use-case is served through POST /v1/map,
// and what it costs, measured end to end and layer by layer, with
// correctness gates on every run.
//
//	bash perfbench/run.sh --workload cold-greedy --seed 1 --seconds 30 --trace 0
//
// run.sh builds this module (which replaces nocmap with the enclosing
// checkout) under .bench_build/ and runs it. Each run is one process: the
// workload's inputs are generated from --seed, set-up is timed, the measured
// phase runs for --seconds, and every metric is printed by name with its
// unit, followed by one JSON line {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 replays
// the first ops traced and reports the per-layer metrics instead, writing
// the spans to --spans. --record appends the run's full record — host
// (nproc, GOMAXPROCS, Go version, CPU model, VCS revision, "+dirty" when the
// tree had uncommitted changes), seed, op and sample counts,
// median/MAD/tail statistics, the reference job's times and the metrics —
// as a JSON line, and fails when the binary was built outside a git
// checkout and so carries no revision; testdata/baseline-seeds-*.jsonl are
// the first two such sets, ten seeds per workload plus one traced run each.
// The exit code is 0 only when every check passed.
//
// Each workload runs an in-process noc.NewServer with one worker per CPU
// behind httptest, loaded by two closed-loop clients on two keep-alive
// connections in the same process. Request bodies are composed from
// pre-encoded use-case fragments of 62 design families, so generating one
// costs microseconds.
//
// # Host speed
//
// On a shared machine the CPU speed drifts by tens of percent over minutes,
// so the same code times differently from run to run. Once a second the
// sampler stops starting ops, waits for those in flight, and times a fixed
// reference job that runs none of the mapper's code (the fastest of five
// sorts of 50k ints); the phase clock does not run meanwhile. Every timing
// is reported at the nominal host speed, on which the job takes 4.5 ms: a
// time measured while the job took 1.2 times that is divided by 1.2, using
// the reference runs on either side of the second it fell in. Set-ups are
// scaled by a reference run just before each. Rates, CPU time per op and
// median latencies are medians over the one-second windows; tails are taken
// over every op of the phase. The per-layer times of the traced run are not
// scaled.
//
// Every workload has a minimum op count a run must reach, or it fails:
// 1178 on cold-greedy, 1000 on hot-hits and 400 on stream-anneal. It fixes
// the tail percentile — the highest with twenty samples beyond it at that
// count — and the point at which the peak resident set is read. On
// cold-greedy and stream-anneal it is also the length of the design cycle:
// every run maps the same designs, each cycle in a seeded order and every
// op under a new name, so every request has a new digest. The first cycle
// is the quality set, over which switches_mean and lower_bound_mean are
// taken; those two therefore repeat exactly across seeds and throughputs,
// and only a change to the mapper moves them.
//
// # Workloads
//
//	cold-greedy    Every request is a never-seen greedy /v1/map: decode, digest,
//	               prepare, the growth loop, summarize and encode all run and the
//	               store only writes. It bypasses the store's read path and the
//	               Session move loop.
//	hot-hits       512 stored answers on a disk store, restarted, then read with
//	               Zipf(s=1.1) popularity through a 128-entry memory tier: every
//	               request is a hit from memory or disk and search never runs.
//	stream-anneal  Serve-then-improve anneals (iters 300, no wall-clock budget)
//	               followed over SSE to the final event: time to the first
//	               result, the Session move loop, the event stream and store
//	               upgrades.
//
// # End-to-end metrics (--trace 0)
//
//	p50_ms [ms]               median op latency (stream-anneal: POST to final event)
//	tail_ms [ms]              latency at the tail percentile: p97.5, p95 on
//	                          stream-anneal
//	ttfr_p50_ms [ms]          median time to the first mapping
//	ttfr_tail_ms [ms]         time to the first mapping at the tail percentile
//	ops_per_s [1/s]           completed ops per second
//	cpu_ms_per_op [ms]        process CPU time per op (getrusage)
//	alloc_kb_per_op [KiB]     heap allocated per op
//	rss_peak_mb [MiB]         peak resident set when the minimum op count completed
//	setup_s [s]               median of sixteen set-ups, half before and half
//	                          after the measured phase: start and first answer
//	switches_mean [count]     mean switch count over the quality set
//	lower_bound_mean [count]  mean reported switch-count lower bound over it
//
// # Per-layer metrics (--trace 1)
//
// The traced run replays the first ops in process, calling each layer's
// public function in the order of the service's request path, with spans
// kept in memory; a layer's self time is its spans' time minus their
// children's. Each op's serve path also runs under a no-op recorder, for
// the overhead.
//
//	traffic.decode_us [us]              traffic.body_kb [KiB]
//	traffic.digest_us [us]              service.key_us [us]
//	service.encode_us [us]              service.summarize_us [us]
//	service.queue_p50_ms [ms]           service.queue_tail_ms [ms]
//	service.front_ms [ms]               store.get_us [us]
//	store.get_tail_us [us]              store.hit_ratio [ratio]
//	store.put_us [us]                   store.upgrade_us [us]
//	store.recover_ms [ms]               usecase.prepare_us [us]
//	usecase.groups_mean [count]         core.map_ms [ms]
//	core.attempts_mean [count]          core.attempt_success_ratio [ratio]
//	core.ms_per_attempt [ms]            core.try_move_us [us]
//	core.evaluate_us [us]               core.try_move_feasible_ratio [ratio]
//	core.try_move_allocs [count]        route.candidates_us [us]
//	route.candidates_per_call [count]   tdma.find_aligned_us [us]
//	tdma.find_aligned_success_ratio [ratio]
//	tdma.reserve_us [us]                search.improve_ms [ms]
//	search.moves_per_s [1/s]            search.accept_ratio [ratio]
//	verify.check_us [us]                sim.verify_ms [ms]
//	runtime.gc_cycles_per_op [count]    runtime.gc_pause_tail_us [us]
//	runtime.heap_peak_mb [MiB]          trace.overhead_pct [%]
//	search.<engine>.ms [ms]             search.<engine>.switches_mean [count]
//
// for every engine of noc.Engines() and anneal_spec2, each timed at a fixed
// effort on the first traced design. perfbench -h prints
// each metric with its meaning and the end-to-end metric and workload it
// should move.
//
// # Correctness
//
// Every run recomputes the paper's Fig. 6a-c, Fig. 7a-c, §6.2, headline and
// ablation values and compares them exactly with testdata/paper.json. Every
// op must succeed with HTTP 2xx, no verification violations and a lower
// bound no larger than its switch count; a hit must be byte-identical to
// the answer it was stored from. In the traced run every replayed result
// must be byte-identical to the answer the workload received and pass the
// slot-accurate simulator. Any miss counts in "failed" and fails the run.
package main
