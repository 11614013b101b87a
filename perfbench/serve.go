package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"cardopc/internal/layout"
	"cardopc/internal/server"
)

// serveRaster is one of serve256's two imaging setups.
type serveRaster struct {
	grid    int
	pitchNM float64
}

// serveRasters: most jobs image at 256 px / 8 nm, a share at 128 px /
// 16 nm, so two warm kernel sets coexist in the server.
var serveRasters = []serveRaster{{256, 8}, {128, 16}}

// pollEvery is the open-loop completion poll cadence. Latency is taken
// from the server's own timestamps, so the cadence never enters it.
const pollEvery = 20 * time.Millisecond

// serveEnv is a running daemon behind a loopback listener plus the
// client that drives it.
type serveEnv struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	client  *http.Client
	served  chan error
	buildMS []float64 // server.Warm wall time per raster
	heapMB  float64   // heap-in-use growth across the warm-ups
}

// startServe builds the daemon with its default config, warms both
// kernel sets and starts serving; it returns once /healthz answers.
func startServe(measureHeap bool) (*serveEnv, error) {
	var h0 float64
	if measureHeap {
		h0 = heapInuseMB()
	}
	e := &serveEnv{srv: server.New(server.Config{}), served: make(chan error, 1)}
	for _, r := range serveRasters {
		t0 := time.Now()
		e.srv.Warm(lithoConfig(r.grid, r.pitchNM))
		e.buildMS = append(e.buildMS, ms(time.Since(t0).Seconds()))
	}
	if measureHeap {
		e.heapMB = heapInuseMB() - h0
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() { e.served <- e.hs.Serve(ln) }()
	conns := runtime.NumCPU()
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	resp, err := e.client.Get(e.url + "/healthz")
	if err != nil {
		e.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	_ = resp.Body.Close()                 // fully read; nothing left to report
	return e, nil
}

// stop shuts the listener, drains the daemon and waits for the serve
// goroutine to return.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timed-out shutdown still closed the listener
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("serve:", err)
	}
	_ = e.srv.Drain(ctx) // every job was awaited before stop
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// plannedJob is one generated request: when it is due (offset from the
// phase start), which case and which raster.
type plannedJob struct {
	at     time.Duration
	clip   layout.Clip
	raster serveRaster
}

// jobSpec is the request body sent for a planned job.
func (p plannedJob) spec(iters int) server.JobSpec {
	return server.JobSpec{Kind: "clip", Case: p.clip.Name, Iters: iters, Grid: p.raster.grid, PitchNM: p.raster.pitchNM}
}

// planJobs generates n jobs from the seed. Inter-arrival gaps are the n
// stratified quantiles of an exponential distribution at rate, in a
// seed-shuffled order: every seed offers the same gaps, so the same load
// and the same share of closely spaced jobs, and only their order varies
// (zero rate leaves every offset at zero). Drawing the gaps independently
// instead let the share of overlapping jobs, and with it op_s.p50, vary
// by 30 % from seed to seed. Cases cycle through a seed permutation of
// all testcases, and in every block of round(1/smallShare) jobs one, at a
// seed-chosen position, runs on the small raster.
func planJobs(seed int64, n int, rate, smallShare float64) []plannedJob {
	r := rand.New(rand.NewSource(seed))
	at := make([]float64, n)
	if rate > 0 {
		gaps := make([]float64, n)
		for k := range gaps {
			gaps[k] = -math.Log(1-(float64(k)+0.5)/float64(n)) / rate
		}
		r.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
		t := 0.0
		for i, g := range gaps {
			t += g
			at[i] = t
		}
	}
	cases := shuffled(seed, allCases())
	block := int(math.Round(1 / smallShare))
	jobs := make([]plannedJob, n)
	small := 0
	for i := range jobs {
		if i%block == 0 {
			small = i + r.Intn(block)
		}
		jobs[i] = plannedJob{at: time.Duration(at[i] * float64(time.Second)), clip: cases[i%len(cases)], raster: serveRasters[0]}
		if i == small {
			jobs[i].raster = serveRasters[1]
		}
	}
	return jobs
}

// jobRecord is what the benchmark saw of one job.
type jobRecord struct {
	job      plannedJob
	due      time.Time // scheduled send time
	sent     time.Time
	submitMS float64 // POST round trip
	code     int     // POST status
	view     server.JobView
	err      error
}

// latency is the time from the job's due time to its completion, from
// the server's own submit, queue and run figures.
func (r *jobRecord) latency() time.Duration {
	end := r.view.SubmittedAt.Add(time.Duration((r.view.QueueMS + r.view.RunMS) * float64(time.Millisecond)))
	return end.Sub(r.due)
}

// submit POSTs one job and returns its view and HTTP status.
func (e *serveEnv) submit(spec server.JobSpec) (server.JobView, int, error) {
	var v server.JobView
	body, err := json.Marshal(spec)
	if err != nil {
		return v, 0, err
	}
	resp, err := e.client.Post(e.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return v, resp.StatusCode, nil
	}
	return v, resp.StatusCode, json.Unmarshal(data, &v)
}

// get fetches one job's view.
func (e *serveEnv) get(id string) (server.JobView, error) {
	var v server.JobView
	resp, err := e.client.Get(e.url + "/v1/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return v, fmt.Errorf("GET job %s: %s", id, resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// await blocks until the job is terminal, by reading its event stream to
// the end, and returns its final view.
func (e *serveEnv) await(id string) (server.JobView, error) {
	resp, err := e.client.Get(e.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return server.JobView{}, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // read to the end or failed: the copy error is the one to report
	if err != nil {
		return server.JobView{}, err
	}
	return e.get(id)
}

// counters reads the daemon's counters from /metrics.json.
func (e *serveEnv) counters() (map[string]int64, error) {
	resp, err := e.client.Get(e.url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return body.Metrics.Counters, nil
}

// openLoop sends the planned jobs at their due times from one generator
// and polls the accepted ones until each is terminal.
func (e *serveEnv) openLoop(jobs []plannedJob, iters int) []jobRecord {
	recs := make([]jobRecord, len(jobs))
	var (
		mu      sync.Mutex
		pending []int
		genDone bool
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for range tick.C {
			mu.Lock()
			batch := append([]int(nil), pending...)
			done := genDone
			mu.Unlock()
			if done && len(batch) == 0 {
				return
			}
			var still []int
			for _, i := range batch {
				v, err := e.get(recs[i].view.ID)
				switch {
				case err != nil:
					recs[i].err = err
				case v.Status.Terminal():
					recs[i].view = v
				default:
					still = append(still, i)
				}
			}
			mu.Lock()
			pending = append(still, pending[len(batch):]...)
			mu.Unlock()
		}
	}()
	start := time.Now()
	for i, j := range jobs {
		due := start.Add(j.at)
		time.Sleep(time.Until(due))
		rec := &recs[i]
		rec.job, rec.due, rec.sent = j, due, time.Now()
		rec.view, rec.code, rec.err = e.submit(j.spec(iters))
		rec.submitMS = ms(time.Since(rec.sent).Seconds())
		if rec.err == nil && rec.code == http.StatusAccepted {
			mu.Lock()
			pending = append(pending, i)
			mu.Unlock()
		}
	}
	mu.Lock()
	genDone = true
	mu.Unlock()
	wg.Wait()
	return recs
}

// closedLoop runs clients that each submit a job, wait for it and
// submit the next until seconds have passed; it returns the records and
// the phase's elapsed time up to the last completion.
func (e *serveEnv) closedLoop(jobs []plannedJob, iters, clients int, seconds float64) ([]jobRecord, float64) {
	var (
		mu   sync.Mutex
		next int
		recs []jobRecord
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < seconds {
				mu.Lock()
				j := jobs[next%len(jobs)]
				next++
				mu.Unlock()
				rec := jobRecord{job: j, due: time.Now()}
				rec.sent = rec.due
				rec.view, rec.code, rec.err = e.submit(j.spec(iters))
				rec.submitMS = ms(time.Since(rec.sent).Seconds())
				if rec.err == nil && rec.code == http.StatusAccepted {
					rec.view, rec.err = e.await(rec.view.ID)
				}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start).Seconds()
}

// serveTally checks records against the oracle and counts outcomes.
type serveTally struct {
	latencies       []float64 // seconds, accepted and correct jobs
	late, throttled int
	attempted, ok   int
	failed, wrong   int
	queueMS, runMS  []float64
	submitMS, lagMS []float64
	problems        []string
	limit           time.Duration
}

func (t *serveTally) add(orc *oracle, r *jobRecord) {
	t.attempted++
	t.submitMS = append(t.submitMS, r.submitMS)
	t.lagMS = append(t.lagMS, ms(r.sent.Sub(r.due).Seconds()))
	fail := func(msg string) {
		t.failed++
		t.late++
		t.problems = append(t.problems, msg)
	}
	switch {
	case r.err != nil:
		fail(fmt.Sprintf("job %s: %v", r.job.clip.Name, r.err))
		return
	case r.code == http.StatusTooManyRequests:
		t.throttled++
		fail(fmt.Sprintf("job %s: refused (429)", r.job.clip.Name))
		return
	case r.code != http.StatusAccepted:
		fail(fmt.Sprintf("job %s: submit status %d", r.job.clip.Name, r.code))
		return
	case r.view.Status != server.StatusDone || r.view.Result == nil:
		fail(fmt.Sprintf("job %s (%s): %s %s", r.view.ID, r.job.clip.Name, r.view.Status, r.view.Error))
		return
	}
	res := r.view.Result
	got := clipRef{EPE: res.EPESumNM, PVB: res.PVBNM2, L2: res.L2Px}
	if err := orc.checkClip(clipKey("serve256", r.job.clip.Name, r.job.raster.grid), got, r.job.raster.pitchNM); err != nil {
		t.wrong++
		fail("wrong result: " + err.Error())
		return
	}
	t.ok++
	lat := r.latency()
	t.latencies = append(t.latencies, lat.Seconds())
	t.queueMS = append(t.queueMS, r.view.QueueMS)
	t.runMS = append(t.runMS, r.view.RunMS)
	if lat > t.limit {
		t.late++
	}
}

// runServe256 is the serve256 workload.
func runServe256(rc runConfig) (*outcome, error) {
	orc, err := loadOracle()
	if err != nil {
		return nil, err
	}
	lm, err := loadLayers()
	if err != nil {
		return nil, err
	}
	set := lm.Serve256
	// Set-up: daemon, both warm kernel sets, listener; repeated, each
	// earlier daemon stopped and collected (untimed) before the next.
	var (
		env           *serveEnv
		setups        []float64
		builds, heaps []float64
	)
	for i := 0; i < setupReps; i++ {
		start := processStart
		if env != nil {
			env.stop()
			env = nil
			runtime.GC()
			start = time.Now()
		}
		env, err = startServe(rc.trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, env.buildMS...)
		heaps = append(heaps, env.heapMB)
	}
	defer env.stop()

	clients := runtime.NumCPU()
	openJobs := planJobs(rc.seed, set.OpenJobs, set.RatePerS, set.SmallShare)
	closedJobs := planJobs(rc.seed+1, 4*set.OpenJobs, 0, set.SmallShare)
	limit := time.Duration(set.LatencyLimitMS * float64(time.Millisecond))

	before, err := env.counters()
	if err != nil {
		return nil, err
	}
	phaseStart := time.Now()
	openRecs := env.openLoop(openJobs, set.Iters)
	open := &serveTally{limit: limit}
	for i := range openRecs {
		open.add(orc, &openRecs[i])
	}
	// The closed loop gets the rest of the run, but at least half of it:
	// its throughput is a mean over the phase, and shorter phases left
	// host noise in it. With the fixed open-loop job count a run can so
	// measure longer than --seconds.
	closedSeconds := math.Max(rc.seconds-time.Since(phaseStart).Seconds(), rc.seconds/2)
	closedRecs, closedElapsed := env.closedLoop(closedJobs, set.Iters, clients, closedSeconds)
	closed := &serveTally{limit: limit}
	for i := range closedRecs {
		closed.add(orc, &closedRecs[i])
	}
	after, err := env.counters()
	if err != nil {
		return nil, err
	}

	out := &outcome{
		attempted: open.attempted + closed.attempted,
		failed:    open.failed + closed.failed,
		wrong:     open.wrong + closed.wrong,
	}
	out.info = append([]string{setupInfo(setups)}, append(open.problems, closed.problems...)...)
	lateRatio := float64(open.late) / float64(max(open.attempted, 1))
	out.info = append(out.info,
		infoLine("late_ratio", lateRatio, "ratio", fmt.Sprintf("%d of %d open-loop jobs over %v, failed or refused", open.late, open.attempted, limit)),
		infoLine("op_s.p90", percentile(open.latencies, 0.9), "s", fmt.Sprintf("%d open-loop jobs at %.2f jobs/s", len(open.latencies), set.RatePerS)),
	)
	out.e2e = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"op_s.p50":    {median(open.latencies), "s"},
		"ops_per_s":   {float64(closed.ok) / closedElapsed, "1/s"},
		"peak_rss_mb": {peakRSSMB(), "MiB"},
	}
	if !rc.trace {
		return out, nil
	}

	layers, err := newLayerSet()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	jobsRun := delta("server.jobs.done") + delta("server.jobs.failed")
	layers.put("server.submit_ms.p50", median(open.submitMS))
	layers.put("server.queue_ms.p50", median(open.queueMS))
	layers.put("server.queue_ms.p90", percentile(open.queueMS, 0.9))
	layers.put("server.run_ms.p50", median(open.runMS))
	layers.put("server.throttled", float64(open.throttled+closed.throttled))
	if sweeps := delta("server.batch.sweeps"); sweeps > 0 {
		layers.put("server.batch.coalesced_per_sweep", delta("server.batch.coalesced")/sweeps)
	}
	if look := delta("litho.proc_cache.hit") + delta("litho.proc_cache.miss"); look > 0 {
		layers.put("litho.proc_cache.hit_ratio", delta("litho.proc_cache.hit")/look)
	}
	if jobsRun > 0 {
		layers.put("fft.inverse2_per_op", delta("fft.inverse2")/jobsRun)
		layers.put("fft.rforward2_per_op", delta("fft.rforward2")/jobsRun)
	}
	layers.put("bench.gen_lag_ms.max", maxOf(open.lagMS))
	layers.put("litho.build_ms", median(builds))
	layers.put("litho.kernel_mb", median(heaps))
	out.layers = layers
	out.spans = serveSpans(phaseStart, openRecs)
	return out, nil
}

// serveSpans renders each accepted open-loop job as an operation span
// from its due time to completion, split into generator lag, submit
// hand-off, queue wait and run.
func serveSpans(t0 time.Time, recs []jobRecord) []span {
	var spans []span
	at := func(t time.Time) float64 { return ms(t.Sub(t0).Seconds()) }
	for op, r := range recs {
		if r.view.SubmittedAt.IsZero() || !r.view.Status.Terminal() {
			continue
		}
		submitted := r.view.SubmittedAt
		started := submitted.Add(time.Duration(r.view.QueueMS * float64(time.Millisecond)))
		end := started.Add(time.Duration(r.view.RunMS * float64(time.Millisecond)))
		root := len(spans)
		spans = append(spans,
			span{Name: "op", Op: op, Parent: -1, Start: at(r.due), End: at(end)},
			span{Name: "bench.gen_lag", Op: op, Parent: root, Start: at(r.due), End: at(r.sent)},
			span{Name: "server.submit", Op: op, Parent: root, Start: at(r.sent), End: at(submitted)},
			span{Name: "server.queue", Op: op, Parent: root, Start: at(submitted), End: at(started)},
			span{Name: "server.run", Op: op, Parent: root, Start: at(started), End: at(end)},
		)
	}
	return spans
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
