package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/httpapi"
	"waterimm/internal/rcache"
	"waterimm/internal/router"
	"waterimm/internal/service"
)

// deployment is the served stack on loopback: one waterrouter with an
// edge cache tier in front of two watersrvd engines, each with its own
// disk tier. Flags match the daemons' defaults.
type deployment struct {
	dir       string
	engines   []*service.Engine
	edge      *rcache.Store
	rt        *router.Router
	servers   []*http.Server
	serving   sync.WaitGroup // one per server goroutine
	backends  []string       // backend base URLs, indexed like engines
	routerURL string
}

const (
	cacheMaxBytes = 256 << 20
	syncTimeout   = 120 * time.Second
)

// newDeployment starts the stack with empty cache directories under dir.
func newDeployment(dir string) (*deployment, error) {
	d := &deployment{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		store, err := rcache.Open(filepath.Join(dir, fmt.Sprintf("b%d", i)), cacheMaxBytes, api.CacheGeneration)
		if err != nil {
			d.close()
			return nil, err
		}
		e := service.New(service.Config{
			JobDeadline:  5 * time.Minute,
			MaxQueueWait: time.Minute,
			DiskCache:    store,
		})
		d.engines = append(d.engines, e)
		url, err := d.serve(httpapi.NewHandler(e, httpapi.Options{SyncTimeout: syncTimeout}))
		if err != nil {
			d.close()
			return nil, err
		}
		d.backends = append(d.backends, url)
	}
	edge, err := rcache.Open(filepath.Join(dir, "edge"), cacheMaxBytes, api.CacheGeneration)
	if err != nil {
		d.close()
		return nil, err
	}
	d.edge = edge
	rt, err := router.New(router.Config{Backends: d.backends, EdgeCache: edge})
	if err != nil {
		d.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	rt.ProbeOnce(ctx)
	cancel()
	rt.Start()
	d.rt = rt
	if d.routerURL, err = d.serve(rt.Handler()); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	d.servers = append(d.servers, srv)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// backendIndex maps a router X-Backend ID ("b0", "b1") to an engine index.
func (d *deployment) backendIndex(id string) (int, error) {
	for i := range d.backends {
		if id == fmt.Sprintf("b%d", i) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q", id)
}

// engineTotals sums the engine counters the benchmark reads.
func (d *deployment) engineTotals() service.Snapshot {
	var t service.Snapshot
	t.Solver = map[string]*service.SolverStats{}
	for _, e := range d.engines {
		s := e.Metrics()
		t.CacheHitsMem += s.CacheHitsMem
		t.CacheHitsDisk += s.CacheHitsDisk
		t.CacheMisses += s.CacheMisses
		t.DedupHits += s.DedupHits
		t.JobsDone += s.JobsDone
		t.JobsFailed += s.JobsFailed
		t.StreamIntervals += s.StreamIntervals
		t.StreamCheckpoints += s.StreamCheckpoints
		t.Assembly.Hits += s.Assembly.Hits
		t.Assembly.Misses += s.Assembly.Misses
		t.AssemblySymbolicHits += s.AssemblySymbolicHits
		t.AssemblySymbolicMisses += s.AssemblySymbolicMisses
		t.PrecondReused += s.PrecondReused
		t.PrecondRefreshed += s.PrecondRefreshed
		t.MCSamplesDeduped += s.MCSamplesDeduped
		for k, v := range s.Solver {
			acc := t.Solver[k]
			if acc == nil {
				acc = &service.SolverStats{}
				t.Solver[k] = acc
			}
			acc.Solves += v.Solves
			acc.Iterations += v.Iterations
		}
	}
	return t
}

// close stops everything the deployment started and removes its
// cache directories. It returns once every server goroutine, prober and
// engine worker has exited.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i := len(d.servers) - 1; i >= 0; i-- {
		errs = append(errs, d.servers[i].Shutdown(ctx))
	}
	d.serving.Wait()
	if d.rt != nil {
		d.rt.Close()
	}
	for _, e := range d.engines {
		e.Close()
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}
