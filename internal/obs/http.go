package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the observer over HTTP:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  MetricsSnapshot as JSON
//	/report        full Report (phases + metrics + flight traces) as JSON
//	/debug/traces  flight-recorder dump (?trace=<id> for one record)
//	/debug/vars    expvar (Go runtime memstats etc.)
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		o.Metrics.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(o.Metrics.Snapshot())
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		b, err := o.BuildReport("live", nil).JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(b)
	})
	mux.Handle("/debug/traces", o.Flight)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// StartServer exposes the Default observer on addr in a background
// goroutine and returns the bound address (useful with ":0"). With
// withPprof it additionally mounts net/http/pprof under /debug/pprof/.
// /healthz and /readyz are always mounted; /readyz consults the hook
// installed with SetReadyHook (always ready when unset).
func StartServer(addr string, withPprof bool) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/", Default.Handler())
	RegisterHealth(mux, processReady)
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}
