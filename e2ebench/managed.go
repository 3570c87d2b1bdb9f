package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	goruntime "runtime"
	"sync"
	"time"

	"deco"
	"deco/internal/cloud"
	"deco/internal/runtime"
	"deco/internal/service"
	"deco/internal/sim"
)

// daemon is an in-process decod on a loopback listener.
type daemon struct {
	srv    *service.Server
	base   string
	served chan error
}

// startDaemon is the decod set-up step: service.New, the listener, and the
// first healthy /healthz.
func startDaemon(ctx context.Context, client *http.Client, workers int) (*daemon, error) {
	srv := service.New(service.Config{Addr: "127.0.0.1:0", Workers: workers})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return nil, err
	}
	d := &daemon{srv: srv, base: "http://" + l.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(l) }()
	give := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if ctx.Err() != nil || time.Now().After(give) {
			_ = d.stop()
			return nil, fmt.Errorf("decod never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	return err
}

func (d *daemon) getJSON(ctx context.Context, client *http.Client, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// runOutcome is what one managed run's client observed.
type runOutcome struct {
	view   service.JobView
	result service.RunResult
	events []runtime.StreamEvent
	lat    float64
}

func runBody(r *request) service.RunRequest {
	body := service.RunRequest{
		SubmitRequest: service.SubmitRequest{DAX: r.DAX, Program: r.Program, Seed: r.Seed},
		Adapt:         true, Perturb: r.Perturb, SpotHazard: r.SpotHazard,
	}
	if r.Program == "" {
		body.Goal = r.Goal
		body.Deadline = &service.PctBound{Percentile: r.Pct, Value: r.Deadline}
	}
	return body
}

// managedCall is the timed request of decod-managed: submit the run, stream
// its events to the end, then read the result.
func (d *daemon) managedCall(ctx context.Context, client *http.Client, r *request) (*runOutcome, error) {
	t := time.Now()
	body, err := json.Marshal(runBody(r))
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	var view service.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s", resp.Status)
	}
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	out := &runOutcome{}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/runs/"+view.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev runtime.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("events: %w", err)
		}
		out.events = append(out.events, ev)
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}

	if err := d.getJSON(ctx, client, "/v1/runs/"+view.ID, &out.view); err != nil {
		return nil, err
	}
	out.lat = since(t)
	if out.view.State != service.JobDone {
		return out, fmt.Errorf("run %s ended %s: %s", view.ID, out.view.State, out.view.Error)
	}
	if err := json.Unmarshal(out.view.Result, &out.result); err != nil {
		return out, fmt.Errorf("run %s result: %w", view.ID, err)
	}
	return out, nil
}

// checkRun is the output check of one managed run: the result agrees with
// its NDJSON event stream (event count, terminal "done" event and its
// figures), every task has a catalog type, Feasible agrees with the
// constraint probability, and deadline_met agrees with the makespan.
func checkRun(o *runOutcome, r *request, cat *cloud.Catalog) error {
	res := &o.result
	if n := len(o.events); n != res.Events || n != o.view.Events || n == 0 {
		return fmt.Errorf("request %d: streamed %d events, result says %d, view %d", r.Index, n, res.Events, o.view.Events)
	}
	last := o.events[len(o.events)-1]
	if last.Kind != "done" || last.Makespan != res.Makespan || last.TotalCost != res.TotalCost {
		return fmt.Errorf("request %d: stream ends with %q (makespan %v, cost %v), result has makespan %v, cost %v",
			r.Index, last.Kind, last.Makespan, last.TotalCost, res.Makespan, res.TotalCost)
	}
	p := &res.Plan
	if p.Tasks == 0 || len(p.Assignments) != p.Tasks || len(res.FinalAssignments) != p.Tasks {
		return fmt.Errorf("request %d: %d tasks, %d planned, %d executed", r.Index, p.Tasks, len(p.Assignments), len(res.FinalAssignments))
	}
	for _, a := range append(append([]service.Assignment(nil), p.Assignments...), res.FinalAssignments...) {
		if cat.TypeIndex(cloud.BaseType(a.Type)) < 0 {
			return fmt.Errorf("request %d: task %s has no catalog type (%q)", r.Index, a.Task, a.Type)
		}
	}
	if !finite(p.Objective) || !finite(p.EstimatedCost) || p.EstimatedCost <= 0 || !finite(res.Makespan) || res.Makespan <= 0 || !finite(res.TotalCost) || res.TotalCost <= 0 {
		return fmt.Errorf("request %d: objective %v, cost %v, makespan %v, realized cost %v", r.Index, p.Objective, p.EstimatedCost, res.Makespan, res.TotalCost)
	}
	if len(p.ConstraintProbs) != 1 || (p.ConstraintProbs[0] >= r.Pct) != p.Feasible {
		return fmt.Errorf("request %d: Feasible=%v with constraint probabilities %v at percentile %v", r.Index, p.Feasible, p.ConstraintProbs, r.Pct)
	}
	if res.DeadlineMet == nil || *res.DeadlineMet != (res.Makespan <= r.Deadline) {
		return fmt.Errorf("request %d: deadline_met %v for makespan %v against %v", r.Index, res.DeadlineMet, res.Makespan, r.Deadline)
	}
	return nil
}

// runManaged runs decod-managed.
func runManaged(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.callers, MaxIdleConnsPerHost: cfg.callers}}
	defer client.CloseIdleConnections()

	var d *daemon
	for k := 0; k < cfg.setups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		goruntime.GC()
		t := time.Now()
		var err error
		if d, err = startDaemon(ctx, client, cfg.callers); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, since(t))
	}
	defer d.stop()

	var err error
	if rep.requests, err = genManaged(cfg.seed, cfg.requests); err != nil {
		return nil, fmt.Errorf("generate requests: %w", err)
	}
	n := len(rep.requests)
	outs := make([]*runOutcome, n)
	errs := make([]error, n)

	var before, after service.Snapshot
	if err := d.getJSON(ctx, client, "/metrics", &before); err != nil {
		return nil, err
	}
	probe := startProbe()
	closedLoop(n, cfg.callers, func(_, i int) {
		outs[i], errs[i] = d.managedCall(ctx, client, &rep.requests[i])
	})
	wall, allocMB, gcs, pause := probe.stop()
	if err := d.getJSON(ctx, client, "/metrics", &after); err != nil {
		return nil, err
	}
	rep.wall, rep.allocMB = wall, allocMB

	cat := cloud.DefaultCatalog()
	var q quality
	rep.latencies = make([]float64, n)
	for i, o := range outs {
		if errs[i] == nil {
			errs[i] = checkRun(o, &rep.requests[i], cat)
		}
		if errs[i] != nil {
			continue
		}
		rep.latencies[i] = o.lat
		q.planned++
		q.planCost += o.result.Plan.EstimatedCost
		if o.result.Plan.Feasible {
			q.feasible++
		}
		q.realizedCost += o.result.TotalCost
		if *o.result.DeadlineMet { // every managed request has a deadline
			q.deadlineHit++
		}
	}
	q.realizedCost /= float64(max(q.planned, 1))
	q.deadlineHit /= float64(max(q.planned, 1))
	rep.quality = q

	if cfg.trace {
		rep.layers = managedLayers(ctx, cfg.callers, rep.requests, outs, errs, before, after)
		rep.layers["go.gc_cycles"] = float64(gcs) / float64(n)
		rep.layers["go.gc_pause_s"] = pause / float64(n)
	}
	rep.settle(errs)
	dg := &digest{}
	for i, o := range outs {
		if errs[i] != nil {
			dg.i64(-1)
			continue
		}
		res := &o.result
		dg.i64(int64(i)).f64(res.Plan.Objective).f64(res.Plan.EstimatedCost).f64(res.Makespan).f64(res.TotalCost).
			i64(int64(res.Replans)).i64(int64(res.Recoveries)).i64(int64(res.Events))
		for _, a := range res.FinalAssignments {
			dg.str(a.Task).str(a.Type)
		}
	}
	rep.planDigest = dg.sum()
	return rep, nil
}

// managedLayers derives the service layers from the runs' job timestamps and
// the /metrics counters, and the runtime and simulator layers from a library
// replay of every run, which must reproduce decod's makespan, cost, replans
// and event count exactly.
func managedLayers(ctx context.Context, callers int, reqs []request, outs []*runOutcome, errs []error, before, after service.Snapshot) map[string]float64 {
	t := layerSums{}
	ok := 0
	for i, o := range outs {
		if errs[i] != nil || o.view.Started == nil || o.view.Finished == nil {
			continue
		}
		ok++
		queue := o.view.Started.Sub(o.view.Submitted).Seconds()
		worker := o.view.Finished.Sub(*o.view.Started).Seconds()
		t.add("service.queue_wait_s", queue)
		t.add("service.worker_s", worker)
		t.add("service.overhead_s", o.lat-queue-worker)
		t.add("service.events", float64(len(o.events)))
	}

	cache := deco.NewEvalCache(0)
	sums := make([]layerSums, callers)
	for c := range sums {
		sums[c] = layerSums{}
	}
	var mu sync.Mutex
	closedLoop(len(reqs), callers, func(c, i int) {
		if errs[i] != nil {
			return
		}
		err := replay(ctx, &reqs[i], &outs[i].result, cache, sums[c])
		if err != nil {
			mu.Lock()
			errs[i] = fmt.Errorf("request %d: replay: %w", i, err)
			mu.Unlock()
		}
	})
	for _, s := range sums {
		for k, v := range s {
			t[k] += v
		}
	}
	per := func(k string) float64 { return t[k] / float64(max(ok, 1)) }
	out := map[string]float64{}
	for _, k := range []string{"service.queue_wait_s", "service.worker_s", "service.overhead_s", "service.events",
		"runtime.on_event_s", "runtime.revise_s", "runtime.replans", "runtime.replan_s", "runtime.risk_worlds",
		"runtime.recoveries", "sim.self_s", "sim.events"} {
		out[k] = per(k)
	}
	hits := float64(after.EvalCacheHits - before.EvalCacheHits)
	out["opt.evalcache_hit_share"] = ratio(hits, hits+float64(after.EvalCacheMisses-before.EvalCacheMisses))
	return out
}

// replay re-executes one managed run through the library — the plan solve,
// runtime.NewMonitor and sim.RunControlled, with the monitor behind a timing
// controller — as decod's worker does.
func replay(ctx context.Context, r *request, want *service.RunResult, cache *deco.EvalCache, l layerSums) error {
	eng, err := deco.NewEngine(deco.WithSeed(r.Seed), deco.WithEvalCache(cache), deco.WithEvalCacheScope(service.KindRun))
	if err != nil {
		return err
	}
	var plan *deco.Plan
	if r.Program != "" {
		plan, err = eng.RunProgramContext(ctx, r.Program, nil)
	} else {
		w, perr := parseDAX(r.DAX)
		if perr != nil {
			return perr
		}
		plan, err = eng.ScheduleConstrainedContext(ctx, w, r.Goal == "cost", deco.Deadline{Percentile: r.Pct, Seconds: r.Deadline}, deco.Budget{})
	}
	if err != nil {
		return err
	}
	splan, err := plan.Materialize()
	if err != nil {
		return err
	}
	tbl, prices, _, err := marketTable(eng, plan.Workflow, r.Spots, "")
	if err != nil {
		return err
	}
	execCat := plan.Catalog()
	if r.Perturb != 1 {
		if execCat, err = cloud.ScalePerf(execCat, r.Perturb); err != nil {
			return err
		}
	}
	if r.SpotHazard != 1 {
		if execCat, err = cloud.ScaleHazard(execCat, r.SpotHazard); err != nil {
			return err
		}
	}
	mon, err := runtime.NewMonitor(plan.Workflow, splan, tbl, prices, cloud.USEast, plan.Constraints,
		runtime.Options{Risk: defaultRisk, Seed: r.Seed, Ctx: ctx, Cache: cache})
	if err != nil {
		return err
	}
	s, err := sim.New(sim.DefaultOptions(execCat, rand.New(rand.NewSource(r.Seed))))
	if err != nil {
		return err
	}
	ctrl := &timedController{mon: mon}
	t := time.Now()
	res, err := s.RunControlled(ctx, plan.Workflow, splan, ctrl)
	if err != nil {
		return err
	}
	simS := since(t)
	mon.Finish(res)
	rp := mon.Report()
	if res.Makespan != want.Makespan || res.TotalCost != want.TotalCost || rp.Replans != want.Replans ||
		rp.Recoveries != want.Recoveries || len(rp.Events) != want.Events {
		return fmt.Errorf("makespan %v/%v, cost %v/%v, replans %d/%d, recoveries %d/%d, events %d/%d (replay/decod)",
			res.Makespan, want.Makespan, res.TotalCost, want.TotalCost, rp.Replans, want.Replans,
			rp.Recoveries, want.Recoveries, len(rp.Events), want.Events)
	}
	l.add("runtime.on_event_s", ctrl.onEvent.Seconds())
	l.add("runtime.revise_s", ctrl.revise.Seconds())
	l.add("runtime.replan_s", ctrl.replans.Seconds())
	l.add("runtime.replans", float64(rp.Replans))
	l.add("runtime.risk_worlds", float64(rp.RiskWorldsRun))
	l.add("runtime.recoveries", float64(rp.Recoveries))
	l.add("sim.self_s", simS-ctrl.onEvent.Seconds()-ctrl.revise.Seconds())
	l.add("sim.events", float64(ctrl.events))
	return nil
}

// defaultRisk is decod's default replan threshold, which managed runs that
// leave risk unset inherit.
const defaultRisk = 0.1
