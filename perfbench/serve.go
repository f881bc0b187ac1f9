package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mighash/internal/engine"
	"mighash/internal/mig"
	"mighash/internal/obs"
	"mighash/internal/server"
)

// serveScript is the preset every serve request asks for.
const serveScript = "resyn"

// serveClients is the number of closed-loop clients: each sends its next
// request only after the previous reply is fully read, as callers such
// as migpipe -url do.
const serveClients = 2

// serveReq is one prepared request.
type serveReq struct {
	name string
	cone *mig.MIG
	body []byte
}

// serveReply is what the client saw for one request.
type serveReply struct {
	status  int
	body    []byte
	err     error
	latency time.Duration
}

// serveOut is the graph a reply carried, or why the reply is a failure.
type serveOut struct {
	m   *mig.MIG
	err error
}

// liveServer is an in-process server.New on a loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(cfg server.Config) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener down, waits for the serving goroutine and
// closes the server.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveRunner drives the serve workload.
type serveRunner struct {
	reqs   []serveReq
	seed   uint64
	n      int // rounds run so far
	live   *liveServer
	client *http.Client
	last   []serveOut // the last round's replies, by request

	traceDir string // the traced round's TraceDir
}

// coneSizes returns, for every output of every circuit, the number of
// gates in its transitive fanin: the size of the cone engine.ExtractCone
// copies out, without copying it.
func coneSizes(suite []prepared) [][]int {
	out := make([][]int, len(suite))
	for c, p := range suite {
		m := p.m
		reach := make([]bool, m.NumNodes())
		for o := 0; o < m.NumPOs(); o++ {
			clear(reach)
			reach[m.Output(o).ID()] = true
			n := 0
			for id := m.NumNodes() - 1; id > m.NumPIs(); id-- {
				if reach[id] && m.IsGate(mig.ID(id)) {
					n++
					for _, ch := range m.Fanin(mig.ID(id)) {
						reach[ch.ID()] = true
					}
				}
			}
			out[c] = append(out[c], n)
		}
	}
	return out
}

func setupServe(ctx context.Context, seed uint64) (runner, error) {
	if _, err := loadDB(ctx); err != nil {
		return nil, err
	}
	suite, err := prepareSuite(ctx)
	if err != nil {
		return nil, err
	}
	_, span := obs.Start(ctx, "setup.requests")
	s := &serveRunner{seed: seed}
	for _, ref := range serveCones(coneSizes(suite)) {
		p := suite[ref.Circuit]
		cone := engine.ExtractCone(p.m, ref.Output)
		var netlist strings.Builder
		if err := cone.WriteBENCH(&netlist); err != nil {
			span.End()
			return nil, err
		}
		name := fmt.Sprintf("%s.out%d", p.name, ref.Output)
		body, err := json.Marshal(server.OptimizeRequest{
			Name:       name,
			Netlist:    netlist.String(),
			ScriptSpec: server.ScriptSpec{Script: serveScript},
		})
		if err != nil {
			span.End()
			return nil, err
		}
		s.reqs = append(s.reqs, serveReq{name, cone, body})
	}
	span.End()
	_, span = obs.Start(ctx, "setup.server")
	s.live, err = startServer(server.Config{})
	span.End()
	if err != nil {
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	return s, nil
}

func (s *serveRunner) round(ctx context.Context, m mode) (roundResult, error) {
	live := s.live
	if m == traced {
		dir, err := os.MkdirTemp(outDir, "serve-trace-")
		if err != nil {
			return roundResult{}, err
		}
		s.traceDir = dir
		if live, err = startServer(server.Config{TraceDir: dir}); err != nil {
			return roundResult{}, err
		}
		defer live.stop()
	}
	replies := make([]serveReply, len(s.reqs))
	order := serveOrder(s.seed, s.n, len(s.reqs))
	s.n++
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				replies[i] = s.send(ctx, live.url, s.reqs[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	rr := roundResult{wall: wall, attempted: len(replies)}
	s.last = make([]serveOut, len(replies))
	for i, r := range replies {
		m, err := decodeReply(r)
		s.last[i] = serveOut{m, err}
		if err != nil {
			rr.failed++
			fmt.Fprintf(os.Stderr, "perfbench: serve %s: %v\n", s.reqs[i].name, err)
			continue
		}
		rr.decided++
		rr.latencies = append(rr.latencies, r.latency)
		rr.gates += m.Size()
		rr.depth += m.Depth()
	}
	return rr, nil
}

// send posts one request and reads the whole reply, timing both.
func (s *serveRunner) send(ctx context.Context, url string, req serveReq) serveReply {
	ctx, span := obs.Start(ctx, "bench.request")
	defer span.End()
	span.SetStr("name", req.name)
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/optimize", bytes.NewReader(req.body))
	if err != nil {
		return serveReply{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hreq)
	if err != nil {
		return serveReply{err: err, latency: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	span.SetInt("status", int64(resp.StatusCode))
	return serveReply{status: resp.StatusCode, body: body, err: err, latency: time.Since(start)}
}

// decodeReply returns the optimized graph of a successful reply, or why
// the reply is a failure.
func decodeReply(r serveReply) (*mig.MIG, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.status/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var resp server.OptimizeResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, fmt.Errorf("decoding the reply: %w", err)
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("job error: %s", resp.Error)
	}
	m, err := mig.ReadBENCH(strings.NewReader(resp.Netlist))
	if err != nil {
		return nil, fmt.Errorf("re-parsing the reply netlist: %w", err)
	}
	return m, nil
}

// check requires every reply of the last round to have re-parsed into a
// graph sim-equivalent to the cone it was sent.
func (s *serveRunner) check() error {
	for i, out := range s.last {
		err := out.err
		if err == nil {
			err = simEquivalent(s.reqs[i].cone, out.m)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.reqs[i].name, err)
		}
	}
	return nil
}

// layers reads the per-request trace files the traced round's server
// wrote and reports the phases of a request as medians and p90s.
func (s *serveRunner) layers(spans []*obs.Span) map[string]float64 {
	out := map[string]float64{}
	out["depthopt.prepare_s"] = sumSeconds(durations(spans, "setup.prepare"))
	if s.traceDir == "" {
		return out
	}
	defer os.RemoveAll(s.traceDir)
	files, _ := filepath.Glob(filepath.Join(s.traceDir, "*.json"))
	phases := map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		var tf struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"` // microseconds
			} `json:"traceEvents"`
		}
		if json.Unmarshal(b, &tf) != nil {
			continue
		}
		for _, ev := range tf.TraceEvents {
			key := strings.ReplaceAll(ev.Name, "-", "_")
			phases[key] = append(phases[key], ev.Dur/1000)
		}
	}
	out["server.requests"] = float64(len(files))
	for _, phase := range []string{"parse", "queue_wait", "optimize", "encode"} {
		out["server."+phase+"_ms.p50"] = quantile(phases[phase], 0.5)
		out["server."+phase+"_ms.p90"] = quantile(phases[phase], 0.9)
	}
	return out
}

func (s *serveRunner) close() {
	if err := s.live.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping the server:", err)
	}
	s.client.CloseIdleConnections()
}
