package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"prairie/internal/obs"
	"prairie/internal/server"
)

// env is one running service under test: the registry, the server on a
// loopback listener, and a client limited to `conns` connections.
type env struct {
	wl     *workload
	reg    *server.Registry
	srv    *server.Server
	base   string
	stop   func() error
	client *http.Client
	bodies [][]byte
	refs   []ref
}

// newEnv prepares the worlds and starts the server; with warm, it is
// the set-up that setup_s times. A non-nil metrics registry turns the
// server's metrics on (traced runs only).
func newEnv(wl *workload, dsl string, conns int, metrics *obs.Registry) (*env, error) {
	reg, err := server.DefaultRegistry(maxN, worldSeed, dsl)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Registry: reg, CacheSize: wl.CacheSize, ExecRows: execRows, ExecSeed: execSeed}
	if metrics != nil {
		cfg.Obs = &obs.Observer{Metrics: metrics}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	for _, q := range wl.Pool {
		body, err := json.Marshal(requestFor(wl, q))
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	addr, stop, err := obs.Serve("127.0.0.1:0", srv.Handler())
	if err != nil {
		return nil, err
	}
	return &env{
		wl: wl, reg: reg, srv: srv, base: "http://" + addr, stop: stop, bodies: bodies,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
			Timeout:   requestTimeout,
		},
	}, nil
}

// requestFor is the wire request every workload sends for a pool query:
// the served plan tree is always asked for, so response encoding is on
// the measured path.
func requestFor(wl *workload, q query) server.OptimizeRequest {
	return server.OptimizeRequest{Ruleset: q.World, Query: q.Spec, Tier: wl.Tier,
		IncludePlan: true, Execute: wl.Execute}
}

// warm sends every pool query once, in pool order, and requires each
// answer to be served.
func (e *env) warm(ctx context.Context) error {
	for i := range e.wl.Pool {
		res, err := e.send(ctx, op{Kind: opOptimize, Q: i})
		if err != nil {
			return err
		}
		if res.Out != outOK {
			return fmt.Errorf("warm-up %s: %s", e.wl.Pool[i], res.Out)
		}
	}
	return nil
}

// close waits for background refinements, then stops the listener.
func (e *env) close() {
	e.srv.Router().Wait()
	_ = e.stop()
	e.client.CloseIdleConnections()
}

// send is the HTTP sendFunc: it posts one op and checks the answer
// against the references.
func (e *env) send(ctx context.Context, o op) (result, error) {
	if o.Kind == opInvalidate {
		return e.post(ctx, "/v1/invalidate", nil, nil)
	}
	var a answer
	res, err := e.post(ctx, "/v1/optimize", e.bodies[o.Q], &a)
	if err != nil || res.Out != outOK {
		return res, err
	}
	if a.Degraded {
		return result{Out: outDegraded}, nil
	}
	if err := check(e.wl, e.wl.Pool[o.Q], e.refs[o.Q], a); err != nil {
		return res, err
	}
	return result{Out: outOK, PlanCost: a.Cost}, nil
}

func (e *env) post(ctx context.Context, path string, body []byte, into *answer) (result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		return result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return result{Out: outTimeout}, nil
		}
		return result{Out: outTransport}, nil
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return result{Out: outTransport}, nil
	}
	return classify(resp.StatusCode, buf.Bytes(), into)
}

// bufPool recycles response buffers: the load generator shares the
// server's heap and garbage collector, so its own allocation would
// otherwise show up in the service's latency.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// classify maps a status and body to an outcome, decoding a 200 body
// into `into` when given.
func classify(status int, raw []byte, into *answer) (result, error) {
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return result{Out: outShed}, nil
	case status != http.StatusOK:
		return result{Out: outStatus}, nil
	}
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			return result{}, fmt.Errorf("undecodable answer: %w", err)
		}
	}
	return result{Out: outOK}, nil
}

// timeSetup runs newEnv plus warm-up several times, keeping the last
// environment, and returns the set-up durations. Cheap set-ups are
// repeated more often, since one of a tenth of a second varies by tens
// of percent from run to run.
func timeSetup(wl *workload, dsl string, conns int, refs []ref) (*env, []float64, error) {
	var durs []float64
	var e *env
	began := time.Now()
	for k := 0; k < minSetups || (k < maxSetups && time.Since(began) < setupBudget); k++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		e, err = newEnv(wl, dsl, conns, nil)
		if err != nil {
			return nil, nil, err
		}
		e.refs = refs
		if err := e.warm(context.Background()); err != nil {
			e.close()
			return nil, nil, err
		}
		// Under tier=auto the warm-up starts background refinements;
		// the cache is filled once they have landed.
		e.srv.Router().Wait()
		durs = append(durs, time.Since(start).Seconds())
	}
	return e, durs, nil
}
